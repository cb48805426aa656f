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

// Classifier is a fitted random forest. Its predict methods — PredictProba,
// PredictProbaBatchInto, Predict and NumClasses — are tree.Ensemble's,
// over the flat form compiled once at Fit or Decode time: the mean of the
// trees' leaf distributions.
type Classifier struct {
	tree.Ensemble
	cfg   Config
	trees []*tree.Classifier
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
	maxFeatures := f.cfg.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Sqrt(float64(x.Cols)))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}

	// The trees grow into a local slice: a failed fit leaves the last good
	// one in place.
	trees := make([]*tree.Classifier, f.cfg.NumTrees)
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
			trees[ti] = t
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ens, err := compile(trees, x.Cols, numClasses)
	if err != nil {
		return err
	}
	f.trees, f.Ensemble = trees, ens
	return nil
}

// compile compiles the ensemble into the shared flat layout (tree.Flat),
// each leaf adding its class distribution unscaled, and averages over the
// trees (tree.NewMean).
func compile(trees []*tree.Classifier, numFeats, numClasses int) (tree.Ensemble, error) {
	fl := tree.NewFlat(numClasses, 1)
	for i, t := range trees {
		if err := fl.Add(t.ExportNodes(), 0); err != nil {
			return tree.Ensemble{}, fmt.Errorf("forest: tree %d: %w", i, err)
		}
	}
	return tree.NewMean(fl, numFeats), nil
}

// PredictProbaBatch is PredictProba under the name fleet.BatchClassifier
// gives it. Only the frozen benchmark calls it; it goes when the benchmark
// stops calling it.
func (f *Classifier) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) { return f.PredictProba(x) }

// FeatureImportances averages normalised Gini importances over trees.
func (f *Classifier) FeatureImportances() []float64 {
	out := make([]float64, f.NumFeatures())
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
