// Package xgb implements an XGBoost-style gradient-boosted tree classifier:
// second-order (Newton) boosting with a softmax objective, exact greedy
// splits scored by the regularised gain formula, γ (min split loss),
// λ (ℓ2) and α (ℓ1) regularisation, and gain/weight feature importance —
// everything the paper's §IV-B experiment exercises.
package xgb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/tree"
)

// Config controls boosting: the round count and the paper's γ/λ/α grid.
type Config struct {
	// NumRounds is the number of boosting rounds (the paper uses 40).
	NumRounds int
	// Gamma is the minimum loss reduction to make a split (γ in the paper's
	// grid search).
	Gamma float64
	// Lambda is the ℓ2 regularisation on leaf weights (λ).
	Lambda float64
	// Alpha is the ℓ1 regularisation on leaf weights (α).
	Alpha float64
}

// xgboost's defaults for the settings the paper does not search. Every tree
// sees every training row.
const (
	// learningRate shrinks each tree's contribution.
	learningRate = 0.3
	// maxDepth limits individual trees.
	maxDepth = 6
	// minChildWeight is the minimum hessian sum per child.
	minChildWeight = 1
)

// regNode is one node of a regression tree on (gradient, hessian) targets.
type regNode struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      bool
	weight    float64
}

type regTree struct{ nodes []regNode }

func (t *regTree) predictRow(row []float64) float64 {
	id := 0
	for !t.nodes[id].leaf {
		n := &t.nodes[id]
		if row[n.feature] <= n.threshold {
			id = n.left
		} else {
			id = n.right
		}
	}
	return t.nodes[id].weight
}

// Classifier is a fitted boosted ensemble. Its predict methods —
// PredictProba, PredictProbaBatchInto, Predict and NumClasses — are
// tree.Ensemble's, over the flat form compiled once at Fit or Decode time:
// the softmax of the boosted per-class scores.
type Classifier struct {
	tree.Ensemble
	cfg   Config
	lr    float64      // the rate the trees are scaled by: learningRate, or a decoded model's own
	trees [][]*regTree // [round][class]

	gainImp   []float64
	weightImp []float64

	// TrainLoss records mean softmax cross-entropy per round, used to
	// reproduce the paper's plateau/overfitting analysis.
	TrainLoss []float64
	// EvalAccuracy records per-round accuracy on the optional eval set.
	EvalAccuracy []float64
}

// New returns an unfitted classifier. NumRounds ≤ 0 selects 40.
func New(cfg Config) *Classifier {
	if cfg.NumRounds <= 0 {
		cfg.NumRounds = 40
	}
	return &Classifier{cfg: cfg}
}

// Fit trains the ensemble. evalX/evalY may be nil; when given, they must
// hold one label per row and the training rows' width, and per-round eval
// accuracy is recorded in EvalAccuracy. The fit grows on a scratch booster
// and replaces c only once it has compiled: a failed call leaves the last
// good fit in place.
func (c *Classifier) Fit(x *mat.Matrix, y []int, numClasses int, evalX *mat.Matrix, evalY []int) error {
	if x.Rows != len(y) {
		return fmt.Errorf("xgb: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("xgb: empty training set")
	}
	if numClasses < 2 {
		return errors.New("xgb: need at least two classes")
	}
	for _, v := range y {
		if v < 0 || v >= numClasses {
			return fmt.Errorf("xgb: label %d out of range", v)
		}
	}
	if evalX != nil && evalX.Rows != len(evalY) {
		return fmt.Errorf("xgb: %d eval rows vs %d eval labels", evalX.Rows, len(evalY))
	}
	if evalX != nil && evalX.Cols != x.Cols {
		return fmt.Errorf("xgb: eval rows have %d features, training rows %d", evalX.Cols, x.Cols)
	}
	ord, err := tree.NewOrder(x)
	if err != nil {
		return fmt.Errorf("xgb: %w", err)
	}
	fit := &Classifier{cfg: c.cfg, lr: learningRate, gainImp: make([]float64, x.Cols), weightImp: make([]float64, x.Cols)}
	b := newGrower(fit, ord)

	n := x.Rows
	scores := mat.New(n, numClasses)
	probs := mat.New(n, numClasses)
	g := make([]float64, n)
	h := make([]float64, n)

	var evalScores *mat.Matrix
	if evalX != nil {
		evalScores = mat.New(evalX.Rows, numClasses)
	}

	for round := 0; round < c.cfg.NumRounds; round++ {
		// Softmax over current scores; accumulate train loss.
		loss := 0.0
		for i := 0; i < n; i++ {
			tree.SoftmaxInto(probs.Row(i), scores.Row(i))
			p := probs.At(i, y[i])
			loss += -math.Log(math.Max(p, 1e-15))
		}
		fit.TrainLoss = append(fit.TrainLoss, loss/float64(n))

		roundTrees := make([]*regTree, numClasses)
		for k := 0; k < numClasses; k++ {
			for i := 0; i < n; i++ {
				p := probs.At(i, k)
				target := 0.0
				if y[i] == k {
					target = 1
				}
				g[i] = p - target
				h[i] = math.Max(p*(1-p), 1e-16)
			}
			tr := b.buildTree(g, h)
			roundTrees[k] = tr
			for i := 0; i < n; i++ {
				scores.Set(i, k, scores.At(i, k)+learningRate*tr.predictRow(x.Row(i)))
			}
			if evalScores != nil {
				for i := 0; i < evalX.Rows; i++ {
					evalScores.Set(i, k, evalScores.At(i, k)+learningRate*tr.predictRow(evalX.Row(i)))
				}
			}
		}
		fit.trees = append(fit.trees, roundTrees)

		if evalScores != nil {
			correct := 0
			for i := 0; i < evalX.Rows; i++ {
				if mat.ArgMax(evalScores.Row(i)) == evalY[i] {
					correct++
				}
			}
			fit.EvalAccuracy = append(fit.EvalAccuracy, float64(correct)/float64(evalX.Rows))
		}
	}
	if fit.Ensemble, err = compile(fit.trees, learningRate, x.Cols, numClasses); err != nil {
		return err
	}
	*c = *fit
	return nil
}

// leafWeight applies the ℓ1 soft threshold and ℓ2 shrinkage:
// w* = -T_α(G)/(H+λ).
func (c *Classifier) leafWeight(gSum, hSum float64) float64 {
	return -softThreshold(gSum, c.cfg.Alpha) / (hSum + c.cfg.Lambda)
}

// splitScore is the structure score ½·T_α(G)²/(H+λ) entering the gain.
func (c *Classifier) splitScore(gSum, hSum float64) float64 {
	t := softThreshold(gSum, c.cfg.Alpha)
	return 0.5 * t * t / (hSum + c.cfg.Lambda)
}

func softThreshold(g, alpha float64) float64 {
	switch {
	case g > alpha:
		return g - alpha
	case g < -alpha:
		return g + alpha
	default:
		return 0
	}
}

// grower is one Fit's scratch: the split order and the buffers a node's
// search and partition reuse. A node is done with them before it grows its
// children, so one set serves every tree of the fit.
type grower struct {
	c         *Classifier
	ord       *tree.Order
	keys, tmp []uint32
	own       []int
	spill     []int
}

func newGrower(c *Classifier, ord *tree.Order) *grower {
	n := ord.Rows()
	return &grower{
		c: c, ord: ord,
		keys: make([]uint32, n), tmp: make([]uint32, n),
		own: make([]int, n), spill: make([]int, n),
	}
}

// buildTree grows one regression tree over every training row by exact
// greedy search. Each node splits its rows in place, stably, so a child's
// gradient sums add its rows in ascending row order.
func (b *grower) buildTree(g, h []float64) *regTree {
	t := &regTree{}
	for i := range b.own {
		b.own[i] = i
	}
	b.grow(t, g, h, b.own, 0)
	return t
}

// grow scans every feature's rows in rank order — ascending value, ties by
// ascending row — so gl and hl add tied rows in a declared order.
func (b *grower) grow(t *regTree, g, h []float64, rows []int, depth int) int {
	c := b.c
	var gSum, hSum float64
	for _, i := range rows {
		gSum += g[i]
		hSum += h[i]
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, regNode{})

	if depth >= maxDepth || len(rows) < 2 {
		t.nodes[id] = regNode{leaf: true, weight: c.leafWeight(gSum, hSum)}
		return id
	}

	parentScore := c.splitScore(gSum, hSum)
	bestGain := 0.0
	bestFeat := -1
	var bestThresh float64

	for f := 0; f < b.ord.Cols(); f++ {
		keys := b.ord.SortRanks(f, rows, b.keys, b.tmp)
		vals, byRank := b.ord.Values(f), b.ord.RowsByRank(f)
		var gl, hl float64
		for k := 0; k < len(keys)-1; k++ {
			r := keys[k]
			i := byRank[r]
			gl += g[i]
			hl += h[i]
			v, next := vals[r], vals[keys[k+1]]
			if v == next {
				continue
			}
			hr := hSum - hl
			if hl < minChildWeight || hr < minChildWeight {
				continue
			}
			gain := c.splitScore(gl, hl) + c.splitScore(gSum-gl, hr) - parentScore - c.cfg.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}

	if bestFeat < 0 {
		t.nodes[id] = regNode{leaf: true, weight: c.leafWeight(gSum, hSum)}
		return id
	}

	c.gainImp[bestFeat] += bestGain
	c.weightImp[bestFeat]++

	nl := b.ord.Partition(rows, bestFeat, bestThresh, b.spill)
	l := b.grow(t, g, h, rows[:nl], depth+1)
	r := b.grow(t, g, h, rows[nl:], depth+1)
	t.nodes[id] = regNode{feature: bestFeat, threshold: bestThresh, left: l, right: r}
	return id
}

// ImportanceKind selects the feature-importance flavour.
type ImportanceKind int

const (
	// ImportanceGain accumulates split gains ("how much each attribute
	// split point improves the accuracy metric", as the paper puts it).
	ImportanceGain ImportanceKind = iota
	// ImportanceWeight counts how often a feature is split on.
	ImportanceWeight
)

// FeatureImportances returns normalised importances of the requested kind.
func (c *Classifier) FeatureImportances(kind ImportanceKind) []float64 {
	src := c.gainImp
	if kind == ImportanceWeight {
		src = c.weightImp
	}
	out := make([]float64, len(src))
	var total float64
	for _, v := range src {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range src {
		out[i] = v / total
	}
	return out
}

// TopFeatures returns the k most important feature indices by the given
// kind, most important first.
func (c *Classifier) TopFeatures(kind ImportanceKind, k int) []int {
	imp := c.FeatureImportances(kind)
	idx := make([]int, len(imp))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// NumRounds returns the number of fitted boosting rounds.
func (c *Classifier) NumRounds() int { return len(c.trees) }
