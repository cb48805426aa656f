// Package xgb implements an XGBoost-style gradient-boosted tree classifier:
// second-order (Newton) boosting with a softmax objective, exact greedy
// splits scored by the regularised gain formula, γ (min split loss),
// λ (ℓ2) and α (ℓ1) regularisation, row subsampling, and gain/weight
// feature importance — everything the paper's §IV-B experiment exercises.
package xgb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
)

// Config controls boosting.
type Config struct {
	// NumRounds is the number of boosting rounds (the paper uses 40).
	NumRounds int
	// LearningRate shrinks each tree's contribution (xgboost default 0.3).
	LearningRate float64
	// MaxDepth limits individual trees (xgboost default 6).
	MaxDepth int
	// Gamma is the minimum loss reduction to make a split (γ in the paper's
	// grid search).
	Gamma float64
	// Lambda is the ℓ2 regularisation on leaf weights (λ).
	Lambda float64
	// Alpha is the ℓ1 regularisation on leaf weights (α).
	Alpha float64
	// MinChildWeight is the minimum hessian sum per child.
	MinChildWeight float64
	// Subsample is the per-tree row sampling fraction (1 = all rows).
	Subsample float64
	// Workers bounds batched-prediction parallelism (0 = GOMAXPROCS),
	// mirroring forest.Config.Workers.
	Workers int
	// Seed drives subsampling.
	Seed int64
}

// DefaultConfig mirrors common xgboost defaults with the paper's 40 rounds.
func DefaultConfig() Config {
	return Config{
		NumRounds:      40,
		LearningRate:   0.3,
		MaxDepth:       6,
		Lambda:         1,
		MinChildWeight: 1,
		Subsample:      1,
	}
}

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

// Classifier is a fitted boosted ensemble.
type Classifier struct {
	cfg        Config
	trees      [][]*regTree // [round][class]
	numClasses int
	numFeats   int

	gainImp   []float64
	weightImp []float64

	// flat is the compiled contiguous inference form, built once at Fit or
	// Decode time and immutable afterwards; PredictProbaBatch walks it
	// instead of the pointer trees. See flat.go.
	flat *flatEnsemble

	// TrainLoss records mean softmax cross-entropy per round, used to
	// reproduce the paper's plateau/overfitting analysis.
	TrainLoss []float64
	// EvalAccuracy records per-round accuracy on the optional eval set.
	EvalAccuracy []float64
}

// New returns an unfitted classifier.
func New(cfg Config) *Classifier {
	if cfg.NumRounds <= 0 {
		cfg.NumRounds = 40
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.3
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinChildWeight <= 0 {
		cfg.MinChildWeight = 1
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = 1
	}
	return &Classifier{cfg: cfg}
}

// Fit trains the ensemble. evalX/evalY may be nil; when given, per-round
// eval accuracy is recorded in EvalAccuracy.
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
	c.numClasses = numClasses
	c.numFeats = x.Cols
	c.gainImp = make([]float64, x.Cols)
	c.weightImp = make([]float64, x.Cols)
	c.trees = nil
	c.TrainLoss = nil
	c.EvalAccuracy = nil

	n := x.Rows
	scores := mat.New(n, numClasses)
	probs := mat.New(n, numClasses)
	g := make([]float64, n)
	h := make([]float64, n)
	rng := rand.New(rand.NewSource(c.cfg.Seed))

	var evalScores *mat.Matrix
	if evalX != nil {
		evalScores = mat.New(evalX.Rows, numClasses)
	}

	for round := 0; round < c.cfg.NumRounds; round++ {
		// Softmax over current scores; accumulate train loss.
		loss := 0.0
		for i := 0; i < n; i++ {
			softmaxInto(probs.Row(i), scores.Row(i))
			p := probs.At(i, y[i])
			loss += -math.Log(math.Max(p, 1e-15))
		}
		c.TrainLoss = append(c.TrainLoss, loss/float64(n))

		rows := c.sampleRows(n, rng)
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
			tr := c.buildTree(x, g, h, rows)
			roundTrees[k] = tr
			for i := 0; i < n; i++ {
				scores.Set(i, k, scores.At(i, k)+c.cfg.LearningRate*tr.predictRow(x.Row(i)))
			}
			if evalScores != nil {
				for i := 0; i < evalX.Rows; i++ {
					evalScores.Set(i, k, evalScores.At(i, k)+c.cfg.LearningRate*tr.predictRow(evalX.Row(i)))
				}
			}
		}
		c.trees = append(c.trees, roundTrees)

		if evalScores != nil {
			correct := 0
			for i := 0; i < evalX.Rows; i++ {
				if mat.ArgMax(evalScores.Row(i)) == evalY[i] {
					correct++
				}
			}
			c.EvalAccuracy = append(c.EvalAccuracy, float64(correct)/float64(evalX.Rows))
		}
	}
	c.flat = compileFlat(c.trees, c.cfg.LearningRate, numClasses)
	return nil
}

// softmaxInto writes softmax(scores) into dst. dst may alias scores: the
// max is read before any write, and each scores[i] is read before dst[i]
// is written — the flat kernel's in-place call depends on this.
func softmaxInto(dst, scores []float64) {
	max := scores[0]
	for _, v := range scores[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range scores {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

func (c *Classifier) sampleRows(n int, rng *rand.Rand) []int {
	if c.cfg.Subsample >= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	var rows []int
	for i := 0; i < n; i++ {
		if rng.Float64() < c.cfg.Subsample {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		rows = append(rows, rng.Intn(n))
	}
	return rows
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

// buildTree grows one regression tree by exact greedy search.
func (c *Classifier) buildTree(x *mat.Matrix, g, h []float64, rows []int) *regTree {
	t := &regTree{}
	c.grow(t, x, g, h, rows, 0)
	return t
}

func (c *Classifier) grow(t *regTree, x *mat.Matrix, g, h []float64, rows []int, depth int) int {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += g[i]
		hSum += h[i]
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, regNode{})

	if depth >= c.cfg.MaxDepth || len(rows) < 2 {
		t.nodes[id] = regNode{leaf: true, weight: c.leafWeight(gSum, hSum)}
		return id
	}

	parentScore := c.splitScore(gSum, hSum)
	bestGain := 0.0
	bestFeat := -1
	var bestThresh float64

	sorted := make([]int, len(rows))
	for f := 0; f < x.Cols; f++ {
		copy(sorted, rows)
		sort.Slice(sorted, func(a, b int) bool { return x.At(sorted[a], f) < x.At(sorted[b], f) })
		var gl, hl float64
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			gl += g[i]
			hl += h[i]
			v, next := x.At(i, f), x.At(sorted[k+1], f)
			if v == next {
				continue
			}
			hr := hSum - hl
			if hl < c.cfg.MinChildWeight || hr < c.cfg.MinChildWeight {
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

	var left, right []int
	for _, i := range rows {
		if x.At(i, bestFeat) <= bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	l := c.grow(t, x, g, h, left, depth+1)
	r := c.grow(t, x, g, h, right, depth+1)
	t.nodes[id] = regNode{feature: bestFeat, threshold: bestThresh, left: l, right: r}
	return id
}

// scoreRowInto accumulates the boosted per-class scores for one feature row
// into dst. Both the serial and batched predict paths go through here, so
// their per-row results are bit-identical.
func (c *Classifier) scoreRowInto(row, dst []float64) {
	for _, round := range c.trees {
		for k, tr := range round {
			dst[k] += c.cfg.LearningRate * tr.predictRow(row)
		}
	}
}

func (c *Classifier) checkPredictable(x *mat.Matrix) error {
	if c.trees == nil {
		return errors.New("xgb: not fitted")
	}
	if x.Cols != c.numFeats {
		return fmt.Errorf("xgb: %d features, fitted on %d", x.Cols, c.numFeats)
	}
	return nil
}

// PredictScores returns raw per-class boosting scores.
func (c *Classifier) PredictScores(x *mat.Matrix) (*mat.Matrix, error) {
	if err := c.checkPredictable(x); err != nil {
		return nil, err
	}
	out := mat.New(x.Rows, c.numClasses)
	for i := 0; i < x.Rows; i++ {
		c.scoreRowInto(x.Row(i), out.Row(i))
	}
	return out, nil
}

// PredictProba returns softmax probabilities.
func (c *Classifier) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	scores, err := c.PredictScores(x)
	if err != nil {
		return nil, err
	}
	for i := 0; i < scores.Rows; i++ {
		row := scores.Row(i)
		softmaxInto(row, append([]float64(nil), row...))
	}
	return scores, nil
}

// PredictProbaBatch is the serving hot path for fleet-scale batched
// inference: one call scores the whole matrix, splitting rows into
// contiguous blocks over a bounded worker pool (cfg.Workers, 0 = GOMAXPROCS,
// mirroring forest.Config.Workers) and sweeping each block tree by tree
// over the flat node arrays compiled at Fit/Decode time (see flat.go) — no
// per-node pointer dereferences. Results are bit-identical to PredictProba.
func (c *Classifier) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) {
	if c.flat == nil {
		return nil, errors.New("xgb: not fitted")
	}
	if err := c.checkPredictable(x); err != nil {
		return nil, err
	}
	out := mat.New(x.Rows, c.numClasses)
	_ = mat.ParallelRowBlocks(x.Rows, c.cfg.Workers, func(lo, hi int) error {
		c.flat.scoreBlock(x, out, lo, hi)
		return nil
	})
	return out, nil
}

// Predict labels rows by the highest boosting score.
func (c *Classifier) Predict(x *mat.Matrix) ([]int, error) {
	scores, err := c.PredictScores(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, x.Rows)
	for i := range out {
		out[i] = mat.ArgMax(scores.Row(i))
	}
	return out, nil
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
