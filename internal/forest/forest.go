// Package forest implements a random-forest classifier — bootstrap-bagged
// CART trees with per-node feature subsampling and soft-probability voting,
// matching scikit-learn's RandomForestClassifier as used for the paper's
// best-performing baseline (RF with covariance features, Table V).
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/mat"
	"repro/internal/tree"
)

// Config controls forest construction.
type Config struct {
	// NumTrees is the ensemble size (the paper grid-searches 50/100/250).
	NumTrees int
	// MaxDepth limits individual trees (0 = unlimited).
	MaxDepth int
	// MaxFeatures per split; 0 selects √d, scikit-learn's default.
	MaxFeatures int
	// MinSamplesLeaf for individual trees.
	MinSamplesLeaf int
	// Bootstrap draws n samples with replacement per tree when true
	// (scikit-learn default). When false every tree sees all rows.
	Bootstrap bool
	// Seed makes the ensemble reproducible.
	Seed int64
}

// DefaultConfig mirrors scikit-learn defaults with 100 trees.
func DefaultConfig() Config {
	return Config{NumTrees: 100, Bootstrap: true}
}

// Classifier is a fitted random forest.
type Classifier struct {
	cfg        Config
	trees      []*tree.Classifier
	oobIdx     [][]int // per-tree out-of-bag row indices
	numClasses int
	numFeats   int
	// flat is the compiled contiguous inference form, built once at Fit or
	// Decode time and immutable afterwards; PredictProbaBatch walks it
	// instead of the pointer trees. See tree.Flat.
	flat *tree.Flat
}

// New returns an unfitted forest.
func New(cfg Config) *Classifier {
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = 100
	}
	return &Classifier{cfg: cfg}
}

// Fit trains the ensemble. Trees are grown concurrently on a bounded worker
// pool; each tree's bootstrap sample and feature subsampling derive from the
// forest seed, so results are independent of scheduling.
func (f *Classifier) Fit(x *mat.Matrix, y []int, numClasses int) error {
	if x.Rows != len(y) {
		return fmt.Errorf("forest: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("forest: empty training set")
	}
	f.numClasses = numClasses
	f.numFeats = x.Cols

	maxFeatures := f.cfg.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Sqrt(float64(x.Cols)))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}

	f.trees = make([]*tree.Classifier, f.cfg.NumTrees)
	f.oobIdx = make([][]int, f.cfg.NumTrees)
	errs := make([]error, f.cfg.NumTrees)

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup

	for ti := 0; ti < f.cfg.NumTrees; ti++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer wg.Done()
			defer func() { <-sem }()
			treeSeed := f.cfg.Seed + int64(ti)*7919
			rng := rand.New(rand.NewSource(treeSeed))

			idx := make([]int, x.Rows)
			if f.cfg.Bootstrap {
				seen := make([]bool, x.Rows)
				for i := range idx {
					k := rng.Intn(x.Rows)
					idx[i] = k
					seen[k] = true
				}
				var oob []int
				for i, s := range seen {
					if !s {
						oob = append(oob, i)
					}
				}
				f.oobIdx[ti] = oob
			} else {
				for i := range idx {
					idx[i] = i
				}
			}

			t := tree.New(tree.Config{
				MaxDepth:       f.cfg.MaxDepth,
				MinSamplesLeaf: f.cfg.MinSamplesLeaf,
				MaxFeatures:    maxFeatures,
				Seed:           treeSeed ^ 0x517cc1b7,
			})
			if err := t.FitIndices(x, y, idx, numClasses); err != nil {
				errs[ti] = err
				return
			}
			f.trees[ti] = t
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	flat, err := compileFlat(f.trees, numClasses)
	f.flat = flat
	return err
}

// predictProbaInto accumulates the ensemble's averaged leaf distribution for
// one feature row into dst. Both the serial and batched predict paths go
// through here, so their per-row results are bit-identical.
func (f *Classifier) predictProbaInto(row, dst []float64) error {
	for _, t := range f.trees {
		p, err := t.PredictProbaRow(row)
		if err != nil {
			return err
		}
		for c, v := range p {
			dst[c] += v
		}
	}
	inv := 1.0 / float64(len(f.trees))
	for c := range dst {
		dst[c] *= inv
	}
	return nil
}

// PredictProba averages leaf distributions over the ensemble.
func (f *Classifier) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	if len(f.trees) == 0 {
		return nil, errors.New("forest: not fitted")
	}
	out := mat.New(x.Rows, f.numClasses)
	for i := 0; i < x.Rows; i++ {
		if err := f.predictProbaInto(x.Row(i), out.Row(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PredictProbaBatch is the serving hot path for fleet-scale batched
// inference: one call scores the whole matrix, splitting rows into
// contiguous blocks over up to GOMAXPROCS goroutines and sweeping each
// block tree by tree over the flat node arrays compiled at Fit/Decode time
// (see tree.Flat) — no per-node pointer dereferences.
// Results are bit-identical to PredictProba.
func (f *Classifier) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) {
	out := mat.New(x.Rows, f.numClasses)
	if err := f.PredictProbaBatchInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictProbaBatchInto is PredictProbaBatch writing into out, an
// x.Rows×NumClasses matrix the caller owns and may reuse across calls:
// whatever out held is overwritten, so a serving loop scores every batch
// into the same memory.
func (f *Classifier) PredictProbaBatchInto(x, out *mat.Matrix) error {
	if f.flat == nil {
		return errors.New("forest: not fitted")
	}
	if x.Cols != f.numFeats {
		return fmt.Errorf("forest: %d features, fitted on %d", x.Cols, f.numFeats)
	}
	if len(x.Data) != x.Rows*x.Cols {
		return fmt.Errorf("forest: input is %dx%d but holds %d values", x.Rows, x.Cols, len(x.Data))
	}
	if out.Rows != x.Rows || out.Cols != f.numClasses || len(out.Data) != out.Rows*out.Cols {
		return fmt.Errorf("forest: output is %dx%d (%d values), want %dx%d",
			out.Rows, out.Cols, len(out.Data), x.Rows, f.numClasses)
	}
	_ = mat.ParallelRowBlocks(x.Rows, 0, func(lo, hi int) error {
		f.scoreBlock(x, out, lo, hi)
		return nil
	})
	return nil
}

// NumClasses returns the width of a probability row, 0 before Fit.
func (f *Classifier) NumClasses() int { return f.numClasses }

// Predict labels every row by soft vote.
func (f *Classifier) Predict(x *mat.Matrix) ([]int, error) {
	probs, err := f.PredictProba(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, x.Rows)
	for i := range out {
		out[i] = mat.ArgMax(probs.Row(i))
	}
	return out, nil
}

// OOBScore estimates generalisation accuracy from out-of-bag votes. It needs
// Bootstrap=true and returns an error otherwise.
func (f *Classifier) OOBScore(x *mat.Matrix, y []int) (float64, error) {
	if len(f.trees) == 0 {
		return 0, errors.New("forest: not fitted")
	}
	if !f.cfg.Bootstrap {
		return 0, errors.New("forest: OOB score needs bootstrap sampling")
	}
	if len(f.oobIdx) != len(f.trees) {
		return 0, errors.New("forest: out-of-bag indices unavailable (model decoded from an artifact)")
	}
	votes := mat.New(x.Rows, f.numClasses)
	counted := make([]bool, x.Rows)
	for ti, t := range f.trees {
		for _, i := range f.oobIdx[ti] {
			p, err := t.PredictProbaRow(x.Row(i))
			if err != nil {
				return 0, err
			}
			dst := votes.Row(i)
			for c, v := range p {
				dst[c] += v
			}
			counted[i] = true
		}
	}
	correct, total := 0, 0
	for i := range counted {
		if !counted[i] {
			continue
		}
		total++
		if mat.ArgMax(votes.Row(i)) == y[i] {
			correct++
		}
	}
	if total == 0 {
		return 0, errors.New("forest: no out-of-bag samples (too few trees)")
	}
	return float64(correct) / float64(total), nil
}

// FeatureImportances averages normalised Gini importances over trees.
func (f *Classifier) FeatureImportances() []float64 {
	out := make([]float64, f.numFeats)
	if len(f.trees) == 0 {
		return out
	}
	for _, t := range f.trees {
		for i, v := range t.FeatureImportances() {
			out[i] += v
		}
	}
	inv := 1.0 / float64(len(f.trees))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// NumTrees returns the fitted ensemble size.
func (f *Classifier) NumTrees() int { return len(f.trees) }
