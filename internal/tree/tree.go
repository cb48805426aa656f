// Package tree implements CART decision-tree classification: exact greedy
// splits on the Gini criterion with optional per-node feature subsampling.
// It is the base learner for internal/forest and deliberately matches the
// semantics of scikit-learn's DecisionTreeClassifier as used by the paper's
// RandomForestClassifier baseline. It also holds what both tree ensembles,
// internal/forest and internal/xgb, score through: Flat, the compiled
// kernel, and Ensemble, the predict surface around it.
package tree

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree depth (0 = unlimited).
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum samples each child must keep.
	MinSamplesLeaf int
	// MaxFeatures is the number of features sampled per node
	// (0 = all features, the plain CART behaviour).
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed int64
}

// DefaultConfig grows an unpruned CART tree.
func DefaultConfig() Config {
	return Config{MinSamplesSplit: 2, MinSamplesLeaf: 1}
}

type node struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      bool
	probs     []float64
}

// Classifier is a fitted decision tree.
type Classifier struct {
	cfg        Config
	nodes      []node
	numClasses int
	numFeats   int
	importance []float64
}

// New returns an unfitted tree with the given config.
func New(cfg Config) *Classifier {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &Classifier{cfg: cfg}
}

// Fit grows the tree on all rows of x.
func (t *Classifier) Fit(x *mat.Matrix, y []int, numClasses int) error {
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	return t.FitIndices(x, y, idx, numClasses)
}

// FitIndices grows the tree on the given row subset (possibly with
// repetition — forests pass bootstrap samples this way). It ranks x first;
// a caller growing many trees on one matrix ranks it once with NewOrder and
// calls FitOrder.
func (t *Classifier) FitIndices(x *mat.Matrix, y []int, idx []int, numClasses int) error {
	ord, err := NewOrder(x)
	if err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	return t.FitOrder(ord, y, idx, numClasses)
}

// FitOrder is FitIndices on a matrix already ranked by NewOrder. The order
// is only read, so concurrent fits may share it.
func (t *Classifier) FitOrder(ord *Order, y []int, idx []int, numClasses int) error {
	rows := ord.Rows()
	if rows != len(y) {
		return fmt.Errorf("tree: %d rows vs %d labels", rows, len(y))
	}
	if len(idx) == 0 {
		return errors.New("tree: empty training subset")
	}
	if numClasses < 2 {
		return fmt.Errorf("tree: need at least 2 classes, got %d", numClasses)
	}
	for _, i := range idx {
		if i < 0 || i >= rows {
			return fmt.Errorf("tree: index %d out of range", i)
		}
		if y[i] < 0 || y[i] >= numClasses {
			return fmt.Errorf("tree: label %d out of range [0,%d)", y[i], numClasses)
		}
	}
	t.numClasses = numClasses
	t.numFeats = ord.Cols()
	t.nodes = t.nodes[:0]
	t.importance = make([]float64, ord.Cols())
	g := &grower{
		t:      t,
		ord:    ord,
		y:      y,
		rng:    rand.New(rand.NewSource(t.cfg.Seed)),
		rootN:  float64(len(idx)),
		counts: make([]float64, numClasses),
		left:   make([]float64, numClasses),
		keys:   make([]uint32, len(idx)),
		tmp:    make([]uint32, len(idx)),
		spill:  make([]int, len(idx)),
	}
	own := make([]int, len(idx))
	copy(own, idx)
	g.grow(own, 0)
	return nil
}

// grower is one fit's scratch: the split order, the labels, and the
// buffers a node's search and partition reuse. A node is done with them
// before it grows its children, so one set serves the whole tree.
type grower struct {
	t            *Classifier
	ord          *Order
	y            []int
	rng          *rand.Rand
	rootN        float64
	counts, left []float64
	keys, tmp    []uint32
	spill        []int
}

// grow builds the subtree for the samples in idx and returns its node id.
// It reorders idx: each child's samples end up contiguous, in the order
// they held in the parent.
func (g *grower) grow(idx []int, depth int) int {
	t := g.t
	counts := g.counts
	clear(counts)
	for _, i := range idx {
		counts[g.y[i]]++
	}
	n := float64(len(idx))
	gini := giniImpurity(counts, n)

	id := len(t.nodes)
	t.nodes = append(t.nodes, node{})

	if gini == 0 || len(idx) < t.cfg.MinSamplesSplit ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		t.makeLeaf(id, counts, n)
		return id
	}

	feat, thresh, gain, ok := g.bestSplit(idx, gini)
	if !ok {
		t.makeLeaf(id, counts, n)
		return id
	}

	nl := g.ord.Partition(idx, feat, thresh, g.spill)
	if nl < t.cfg.MinSamplesLeaf || len(idx)-nl < t.cfg.MinSamplesLeaf {
		t.makeLeaf(id, counts, n)
		return id
	}

	t.importance[feat] += gain * n / g.rootN

	l := g.grow(idx[:nl], depth+1)
	r := g.grow(idx[nl:], depth+1)
	t.nodes[id] = node{feature: feat, threshold: thresh, left: l, right: r}
	return id
}

func (t *Classifier) makeLeaf(id int, counts []float64, n float64) {
	probs := make([]float64, len(counts))
	for c, v := range counts {
		probs[c] = v / n
	}
	t.nodes[id] = node{leaf: true, probs: probs}
}

// bestSplit scans candidate features for the split maximising Gini gain.
// Each feature's samples are visited in rank order, and the children's
// sums of squared class counts are kept as they move: the counts are
// integers, so the sums are exact and every boundary's Gini is the one a
// full recount gives, whatever the order of tied samples.
func (g *grower) bestSplit(idx []int, parentGini float64) (feat int, thresh, gain float64, ok bool) {
	t := g.t
	m := len(idx)
	n := float64(m)
	var total2 float64
	for _, c := range g.counts {
		total2 += c * c
	}
	// Zero-gain splits are accepted (matching scikit-learn's
	// min_impurity_decrease=0); XOR-like problems need them because the
	// root split only pays off deeper down.
	bestGain := -1.0

	for _, f := range t.candidateFeatures(g.rng) {
		keys := g.ord.SortRanks(f, idx, g.keys, g.tmp)
		vals, rows := g.ord.Values(f), g.ord.RowsByRank(f)
		left := g.left
		clear(left)
		sl, sr := 0.0, total2
		for k := 0; k < m-1; k++ {
			r := keys[k]
			c := g.y[rows[r]]
			lc := left[c]
			rc := g.counts[c] - lc
			left[c] = lc + 1
			sl += 2*lc + 1
			sr -= 2*rc - 1
			v, next := vals[r], vals[keys[k+1]]
			if v == next {
				continue
			}
			if k+1 < t.cfg.MinSamplesLeaf || m-(k+1) < t.cfg.MinSamplesLeaf {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			gl, gr := 1-sl/(nl*nl), 1-sr/(nr*nr)
			gn := parentGini - (nl*gl+nr*gr)/n
			if gn > bestGain {
				bestGain = gn
				feat = f
				thresh = (v + next) / 2
				ok = true
			}
		}
	}
	return feat, thresh, bestGain, ok
}

func giniImpurity(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	var s float64
	for _, c := range counts {
		s += c * c
	}
	return 1 - s/(n*n)
}

// candidateFeatures returns the features considered at one node.
func (t *Classifier) candidateFeatures(rng *rand.Rand) []int {
	k := t.cfg.MaxFeatures
	if k <= 0 || k >= t.numFeats {
		all := make([]int, t.numFeats)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := rng.Perm(t.numFeats)
	return perm[:k]
}

// PredictProbaRow returns the leaf class distribution for one feature row.
func (t *Classifier) PredictProbaRow(row []float64) ([]float64, error) {
	if len(t.nodes) == 0 {
		return nil, errors.New("tree: not fitted")
	}
	if len(row) != t.numFeats {
		return nil, fmt.Errorf("tree: row has %d features, fitted on %d", len(row), t.numFeats)
	}
	id := 0
	for !t.nodes[id].leaf {
		nd := &t.nodes[id]
		if row[nd.feature] <= nd.threshold {
			id = nd.left
		} else {
			id = nd.right
		}
	}
	return t.nodes[id].probs, nil
}

// Predict labels every row of x.
func (t *Classifier) Predict(x *mat.Matrix) ([]int, error) {
	out := make([]int, x.Rows)
	for i := 0; i < x.Rows; i++ {
		p, err := t.PredictProbaRow(x.Row(i))
		if err != nil {
			return nil, err
		}
		out[i] = mat.ArgMax(p)
	}
	return out, nil
}

// FeatureImportances returns normalised Gini importances (summing to 1 when
// any split exists).
func (t *Classifier) FeatureImportances() []float64 {
	out := make([]float64, len(t.importance))
	var total float64
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// NumNodes reports the tree size (diagnostics and tests).
func (t *Classifier) NumNodes() int { return len(t.nodes) }

// NumClasses reports the class count the tree was fitted for.
func (t *Classifier) NumClasses() int { return t.numClasses }

// NumFeatures reports the feature count the tree was fitted for.
func (t *Classifier) NumFeatures() int { return t.numFeats }

// Depth returns the maximum depth of the fitted tree.
func (t *Classifier) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(id int) int
	walk = func(id int) int {
		nd := &t.nodes[id]
		if nd.leaf {
			return 0
		}
		l, r := walk(nd.left), walk(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
