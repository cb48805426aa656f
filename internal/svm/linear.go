package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// LinearConfig controls the linear one-vs-rest SVC.
type LinearConfig struct {
	// C is the soft-margin penalty.
	C float64
	// Seed drives coordinate shuffling.
	Seed int64
}

// Dual coordinate descent's stopping rule, liblinear's defaults.
const (
	// linearEpochs bounds the sweeps over one binary problem.
	linearEpochs = 100
	// linearTol stops a binary problem early when the largest
	// projected-gradient violation in a sweep falls below it.
	linearTol = 1e-4
)

// LinearClassifier is a one-vs-rest linear SVM trained by dual coordinate
// descent on the L1-loss (hinge) objective — the algorithm behind
// liblinear. It trades the kernel SVC's flexibility for O(n·d) training;
// wcctrain's -model linear-svm trains it.
type LinearClassifier struct {
	cfg      LinearConfig
	W        *mat.Matrix // numClasses × d
	B        []float64
	numFeats int
	classes  int
}

// NewLinear returns an unfitted linear classifier. C ≤ 0 selects 1.
func NewLinear(cfg LinearConfig) *LinearClassifier {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	return &LinearClassifier{cfg: cfg}
}

// Fit trains numClasses one-vs-rest binary machines.
func (c *LinearClassifier) Fit(x *mat.Matrix, y []int, numClasses int) error {
	if x.Rows != len(y) {
		return fmt.Errorf("svm: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("svm: empty training set")
	}
	if numClasses < 2 {
		return errors.New("svm: need at least two classes")
	}
	c.numFeats = x.Cols
	c.classes = numClasses
	c.W = mat.New(numClasses, x.Cols)
	c.B = make([]float64, numClasses)

	// Squared row norms, shared by every binary problem. The +1 accounts
	// for the bias absorbed as a constant feature.
	qd := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		qd[i] = mat.Dot(x.Row(i), x.Row(i)) + 1
	}

	for cls := 0; cls < numClasses; cls++ {
		c.fitBinary(x, y, cls, qd)
	}
	return nil
}

// fitBinary solves one one-vs-rest problem with dual coordinate descent.
func (c *LinearClassifier) fitBinary(x *mat.Matrix, y []int, cls int, qd []float64) {
	n := x.Rows
	d := x.Cols
	w := make([]float64, d)
	var b float64
	alpha := make([]float64, n)
	lab := make([]float64, n)
	for i, v := range y {
		if v == cls {
			lab[i] = 1
		} else {
			lab[i] = -1
		}
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(cls)*104729))
	order := rng.Perm(n)

	for epoch := 0; epoch < linearEpochs; epoch++ {
		rng.Shuffle(n, func(a, bIdx int) { order[a], order[bIdx] = order[bIdx], order[a] })
		maxViolation := 0.0
		for _, i := range order {
			row := x.Row(i)
			g := lab[i]*(mat.Dot(w, row)+b) - 1
			pg := g
			switch {
			case alpha[i] == 0:
				pg = math.Min(g, 0)
			case alpha[i] == c.cfg.C:
				pg = math.Max(g, 0)
			}
			if math.Abs(pg) > maxViolation {
				maxViolation = math.Abs(pg)
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			alpha[i] = mat.Clip(old-g/qd[i], 0, c.cfg.C)
			delta := (alpha[i] - old) * lab[i]
			if delta != 0 {
				mat.Axpy(delta, row, w)
				b += delta
			}
		}
		if maxViolation < linearTol {
			break
		}
	}
	copy(c.W.Row(cls), w)
	c.B[cls] = b
}

// DecisionFunction returns the numClasses per-row scores.
func (c *LinearClassifier) DecisionFunction(x *mat.Matrix) (*mat.Matrix, error) {
	if c.W == nil {
		return nil, errors.New("svm: not fitted")
	}
	if x.Cols != c.numFeats {
		return nil, fmt.Errorf("svm: %d features, fitted on %d", x.Cols, c.numFeats)
	}
	out := mat.New(x.Rows, c.classes)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		dst := out.Row(i)
		for cls := 0; cls < c.classes; cls++ {
			dst[cls] = mat.Dot(c.W.Row(cls), row) + c.B[cls]
		}
	}
	return out, nil
}

// Predict labels rows by the highest one-vs-rest score.
func (c *LinearClassifier) Predict(x *mat.Matrix) ([]int, error) {
	scores, err := c.DecisionFunction(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, x.Rows)
	for i := range out {
		out[i] = mat.ArgMax(scores.Row(i))
	}
	return out, nil
}
