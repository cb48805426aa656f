package tree

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Ensemble is the predict surface of a compiled tree ensemble, the one
// both the random forest and the boosted ensemble embed: the flat kernel
// (Flat) and the finishing step its compile call fixed — the mean over the
// trees (NewMean) or a softmax over each row (NewSoftmax). It owns the
// input and output shape checks, the fan-out of a batch over row blocks
// and the finishing step, so every predict method of either ensemble
// scores through this one path. It is immutable once built, so ticks on
// many goroutines can score through it without synchronisation. The zero
// Ensemble is unfitted: every predict method refuses it and NumClasses
// and NumFeatures are 0.
type Ensemble struct {
	flat     *Flat
	numFeats int
	softmax  bool    // finish each row with a softmax, else scale it by inv
	inv      float64 // 1/trees, the mean's factor
}

// NewMean returns fl, whose leaves add their class distributions, as an
// ensemble over numFeats inputs whose probabilities are the mean over its
// trees: the kernel sums the trees in ensemble order, then one multiply by
// 1/trees per entry — the float order of summing each tree's
// PredictProbaRow and scaling the sum.
func NewMean(fl *Flat, numFeats int) Ensemble {
	return Ensemble{flat: fl, numFeats: numFeats, inv: 1.0 / float64(len(fl.roots))}
}

// NewSoftmax returns fl, whose leaves add per-class scores, as an ensemble
// over numFeats inputs whose probabilities are the softmax of each row's
// summed scores.
func NewSoftmax(fl *Flat, numFeats int) Ensemble {
	return Ensemble{flat: fl, numFeats: numFeats, softmax: true}
}

// NumClasses returns the width of a probability row, 0 before Fit.
func (e *Ensemble) NumClasses() int {
	if e.flat == nil {
		return 0
	}
	return e.flat.numClasses
}

// NumFeatures returns the input width predict accepts, 0 before Fit.
func (e *Ensemble) NumFeatures() int { return e.numFeats }

// Flat returns the compiled kernel, nil before Fit, for tests that check
// its layout. Callers must not modify it.
func (e *Ensemble) Flat() *Flat { return e.flat }

// PredictProba returns the class probabilities of every row of x. Rows are
// split into contiguous blocks over up to GOMAXPROCS goroutines, and each
// block is swept over the flat node arrays (see Flat.ScoreBlock).
func (e *Ensemble) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	out := mat.New(x.Rows, e.NumClasses())
	if err := e.PredictProbaBatchInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictProbaBatchInto is PredictProba writing into out, an
// x.Rows×NumClasses matrix the caller owns and may reuse across calls:
// whatever out held is overwritten, so a serving loop scores every batch
// into the same memory. A batch of one row block is scored on the caller
// with no closure, so it allocates nothing.
func (e *Ensemble) PredictProbaBatchInto(x, out *mat.Matrix) error {
	if e.flat == nil {
		return errors.New("tree: ensemble not fitted")
	}
	if x.Cols != e.numFeats {
		return fmt.Errorf("tree: %d features, fitted on %d", x.Cols, e.numFeats)
	}
	if len(x.Data) != x.Rows*x.Cols {
		return fmt.Errorf("tree: input is %dx%d but holds %d values", x.Rows, x.Cols, len(x.Data))
	}
	nc := e.flat.numClasses
	if out.Rows != x.Rows || out.Cols != nc || len(out.Data) != out.Rows*out.Cols {
		return fmt.Errorf("tree: output is %dx%d (%d values), want %dx%d",
			out.Rows, out.Cols, len(out.Data), x.Rows, nc)
	}
	if mat.RowBlocks(x.Rows, 0) == 1 {
		e.scoreBlock(x, out, 0, x.Rows)
		return nil
	}
	_ = mat.ParallelRowBlocks(x.Rows, 0, func(lo, hi int) error {
		e.scoreBlock(x, out, lo, hi)
		return nil
	})
	return nil
}

// Predict labels every row by the arg-max of its PredictProba row, first
// class on ties.
func (e *Ensemble) Predict(x *mat.Matrix) ([]int, error) {
	probs, err := e.PredictProba(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, x.Rows)
	for i := range out {
		out[i] = mat.ArgMax(probs.Row(i))
	}
	return out, nil
}

// scoreBlock overwrites rows [lo, hi) of out with the ensemble's
// probabilities: the kernel adds every tree in ensemble order into cleared
// rows, then the finishing step runs in place.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (e *Ensemble) scoreBlock(x, out *mat.Matrix, lo, hi int) {
	block := out.Data[lo*out.Cols : hi*out.Cols]
	clear(block)
	e.flat.ScoreBlock(x, out, lo, hi)
	if e.softmax {
		for i := lo; i < hi; i++ {
			row := out.Row(i)
			SoftmaxInto(row, row)
		}
		return
	}
	for c := range block {
		block[c] *= e.inv
	}
}

// SoftmaxInto writes softmax(scores) into dst. dst may alias scores: the
// max is read before any write, and each scores[i] is read before dst[i]
// is written — the in-place finishing step depends on this.
func SoftmaxInto(dst, scores []float64) {
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
