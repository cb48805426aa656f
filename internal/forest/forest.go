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
	numClasses int
	numFeats   int
	// flat is the compiled contiguous inference form, built once at Fit or
	// Decode time and immutable afterwards; every predict method walks it.
	// See tree.Flat.
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
// forest seed, so results are independent of scheduling. x is ranked once
// (tree.NewOrder), and every tree searches its splits in that one order.
func (f *Classifier) Fit(x *mat.Matrix, y []int, numClasses int) error {
	if x.Rows != len(y) {
		return fmt.Errorf("forest: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("forest: empty training set")
	}
	ord, err := tree.NewOrder(x)
	if err != nil {
		return fmt.Errorf("forest: %w", err)
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
			for i := range idx {
				if f.cfg.Bootstrap {
					idx[i] = rng.Intn(x.Rows)
				} else {
					idx[i] = i
				}
			}

			t := tree.New(tree.Config{
				MaxDepth:       f.cfg.MaxDepth,
				MinSamplesLeaf: f.cfg.MinSamplesLeaf,
				MaxFeatures:    maxFeatures,
				Seed:           treeSeed ^ 0x517cc1b7,
			})
			if err := t.FitOrder(ord, y, idx, numClasses); err != nil {
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

// PredictProba averages leaf distributions over the ensemble for every row
// of x. Rows are split into contiguous blocks over up to GOMAXPROCS
// goroutines, and each block is swept over the flat node arrays compiled
// at Fit/Decode time (see tree.Flat).
func (f *Classifier) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	out := mat.New(x.Rows, f.numClasses)
	if err := f.PredictProbaBatchInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictProbaBatch is PredictProba under the name fleet.BatchClassifier
// gives it. Only the frozen benchmark calls it; it goes when the benchmark
// stops calling it.
func (f *Classifier) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) { return f.PredictProba(x) }

// PredictProbaBatchInto is PredictProba writing into out, an
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

// Predict labels every row by soft vote: the arg-max of its PredictProba
// row, first class on ties.
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
