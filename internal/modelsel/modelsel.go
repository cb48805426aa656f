// Package modelsel implements the paper's model-selection protocol:
// stratified k-fold cross-validated grid search (10-fold for SVM/RF, 5-fold
// for XGBoost) over named hyper-parameter candidates, with fold evaluation
// parallelised on a GOMAXPROCS-bounded worker pool.
package modelsel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mat"
	"repro/internal/metrics"
)

// FitPredictor trains a fresh model on (trainX, trainY) and labels testX.
// Each invocation must be independent — grid search calls it once per fold.
type FitPredictor func(trainX *mat.Matrix, trainY []int, testX *mat.Matrix) ([]int, error)

// Fold is one cross-validation split.
type Fold struct {
	TrainIdx []int
	ValIdx   []int
}

// StratifiedKFold assigns each class's samples round-robin to folds so every
// fold preserves class proportions — important for the challenge's rare GNN
// classes.
func StratifiedKFold(y []int, k int, seed int64) ([]Fold, error) {
	n := len(y)
	if k < 2 || k > n {
		return nil, fmt.Errorf("modelsel: k=%d invalid for n=%d", k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := map[int][]int{}
	for i, v := range y {
		byClass[v] = append(byClass[v], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)

	assign := make([]int, n) // sample → fold
	next := 0
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx {
			assign[i] = next % k
			next++
		}
	}
	folds := make([]Fold, k)
	for i, f := range assign {
		folds[f].ValIdx = append(folds[f].ValIdx, i)
	}
	for f := range folds {
		inVal := make(map[int]bool, len(folds[f].ValIdx))
		for _, i := range folds[f].ValIdx {
			inVal[i] = true
		}
		for i := 0; i < n; i++ {
			if !inVal[i] {
				folds[f].TrainIdx = append(folds[f].TrainIdx, i)
			}
		}
	}
	return folds, nil
}

// selectRows gathers matrix rows and labels for the given indices.
func selectRows(x *mat.Matrix, y []int, idx []int) (*mat.Matrix, []int) {
	sub := mat.New(len(idx), x.Cols)
	labels := make([]int, len(idx))
	for k, i := range idx {
		copy(sub.Row(k), x.Row(i))
		labels[k] = y[i]
	}
	return sub, labels
}

// CrossValScore evaluates one candidate over the folds, returning the mean
// accuracy and per-fold scores. Up to GOMAXPROCS folds run concurrently.
func CrossValScore(fp FitPredictor, x *mat.Matrix, y []int, folds []Fold) (float64, []float64, error) {
	if len(folds) == 0 {
		return 0, nil, errors.New("modelsel: no folds")
	}
	scores := make([]float64, len(folds))
	errs := make([]error, len(folds))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for f := range folds {
		wg.Add(1)
		sem <- struct{}{}
		go func(f int) {
			defer wg.Done()
			defer func() { <-sem }()
			trainX, trainY := selectRows(x, y, folds[f].TrainIdx)
			valX, valY := selectRows(x, y, folds[f].ValIdx)
			pred, err := fp(trainX, trainY, valX)
			if err != nil {
				errs[f] = err
				return
			}
			acc, err := metrics.Accuracy(valY, pred)
			if err != nil {
				errs[f] = err
				return
			}
			scores[f] = acc
		}(f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores)), scores, nil
}

// Candidate is one grid point: a human-readable name plus a factory.
type Candidate struct {
	Name string
	Fit  FitPredictor
}

// GridResult records one candidate's cross-validation outcome.
type GridResult struct {
	Name       string
	MeanScore  float64
	FoldScores []float64
}

// GridSearch runs cross-validated selection over candidates on stratified
// folds.
type GridSearch struct {
	// Folds is the CV fold count (the paper: 10 for SVM/RF, 5 for XGBoost).
	Folds int
	// Seed drives fold assignment.
	Seed int64
}

// Run scores every candidate and returns the results (best first) plus the
// winning candidate.
func (g *GridSearch) Run(candidates []Candidate, x *mat.Matrix, y []int) ([]GridResult, *Candidate, error) {
	if len(candidates) == 0 {
		return nil, nil, errors.New("modelsel: no candidates")
	}
	folds, err := StratifiedKFold(y, g.Folds, g.Seed)
	if err != nil {
		return nil, nil, err
	}
	results := make([]GridResult, len(candidates))
	for i, cand := range candidates {
		mean, scores, err := CrossValScore(cand.Fit, x, y, folds)
		if err != nil {
			return nil, nil, fmt.Errorf("modelsel: candidate %q: %w", cand.Name, err)
		}
		results[i] = GridResult{Name: cand.Name, MeanScore: mean, FoldScores: scores}
	}
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return results[order[a]].MeanScore > results[order[b]].MeanScore
	})
	sorted := make([]GridResult, len(results))
	for i, o := range order {
		sorted[i] = results[o]
	}
	best := candidates[order[0]]
	return sorted, &best, nil
}
