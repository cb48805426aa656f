// Package svm implements support-vector classification: an RBF C-SVC
// trained with sequential minimal optimization (SMO) and one-vs-one
// multiclass voting — the semantics of scikit-learn's SVC with
// gamma="scale" used by the paper's SVM baselines — plus a linear
// one-vs-rest machine, wcctrain's -model linear-svm.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
)

// Config controls SVC training.
type Config struct {
	// C is the soft-margin penalty (the paper grid-searches 0.1, 1, 10).
	C float64
	// Seed drives SMO's random partner selection.
	Seed int64
}

// SMO's stopping rule, scikit-learn's SVC defaults.
const (
	// tol is the KKT violation tolerance.
	tol = 1e-3
	// maxPasses is the number of full no-change passes before convergence
	// is declared.
	maxPasses = 3
	// maxIter caps total optimisation sweeps as a safety net.
	maxIter = 200
)

// rbf is exp(-γ‖a-b‖²).
func rbf(gamma float64, a, b []float64) float64 {
	var d2 float64
	for i, v := range a {
		d := v - b[i]
		d2 += d * d
	}
	return math.Exp(-gamma * d2)
}

// binarySVM is one SMO-trained two-class machine separating classes[a]
// (decision ≥ 0) from classes[b].
type binarySVM struct {
	a, b  int
	svX   *mat.Matrix
	svY   []float64
	alpha []float64
	bias  float64
	gamma float64
}

// decision evaluates Σ αᵢyᵢK(xᵢ,x) + b.
func (m *binarySVM) decision(row []float64) float64 {
	s := m.bias
	for i := 0; i < m.svX.Rows; i++ {
		s += m.alpha[i] * m.svY[i] * rbf(m.gamma, m.svX.Row(i), row)
	}
	return s
}

// Classifier is a fitted one-vs-one multiclass SVC.
type Classifier struct {
	cfg      Config
	classes  []int
	machines []*binarySVM // in (a, b) pair order
	gamma    float64      // the "scale" gamma resolved at fit time
	numFeats int
}

// New returns an unfitted classifier. C ≤ 0 selects 1.
func New(cfg Config) *Classifier {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	return &Classifier{cfg: cfg}
}

// gammaScale computes scikit-learn's "scale" heuristic: 1/(d·Var(X)) over
// all matrix entries.
func gammaScale(x *mat.Matrix) float64 {
	v := mat.Variance(x.Data)
	if v <= 0 {
		v = 1
	}
	return 1 / (float64(x.Cols) * v)
}

// Fit trains C(C-1)/2 pairwise machines.
func (c *Classifier) Fit(x *mat.Matrix, y []int) error {
	if x.Rows != len(y) {
		return fmt.Errorf("svm: %d rows vs %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("svm: empty training set")
	}
	c.numFeats = x.Cols

	c.gamma = gammaScale(x)

	seen := map[int]bool{}
	for _, v := range y {
		seen[v] = true
	}
	c.classes = c.classes[:0]
	for v := range seen {
		c.classes = append(c.classes, v)
	}
	sort.Ints(c.classes)
	if len(c.classes) < 2 {
		return errors.New("svm: need at least two classes")
	}

	byClass := map[int][]int{}
	for i, v := range y {
		byClass[v] = append(byClass[v], i)
	}

	c.machines = c.machines[:0]
	for ai := 0; ai < len(c.classes); ai++ {
		for bi := ai + 1; bi < len(c.classes); bi++ {
			ca, cb := c.classes[ai], c.classes[bi]
			idx := append(append([]int{}, byClass[ca]...), byClass[cb]...)
			sub := mat.New(len(idx), x.Cols)
			ys := make([]float64, len(idx))
			for k, i := range idx {
				copy(sub.Row(k), x.Row(i))
				if y[i] == ca {
					ys[k] = 1
				} else {
					ys[k] = -1
				}
			}
			m := trainSMO(sub, ys, c.gamma, c.cfg)
			m.a, m.b = ai, bi
			c.machines = append(c.machines, m)
		}
	}
	return nil
}

// trainSMO runs simplified SMO (Platt) with a precomputed kernel matrix.
func trainSMO(x *mat.Matrix, y []float64, gamma float64, cfg Config) *binarySVM {
	n := x.Rows
	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rbf(gamma, x.Row(i), x.Row(j))
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	alpha := make([]float64, n)
	b := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))

	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * k.At(j, i)
			}
		}
		return s
	}

	passes := 0
	for iter := 0; passes < maxPasses && iter < maxIter; iter++ {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -tol && alpha[i] < cfg.C) || (y[i]*ei > tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]

			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cfg.C)
				hi = math.Min(cfg.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k.At(i, j) - k.At(i, i) - k.At(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			ajNew = mat.Clip(ajNew, lo, hi)
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)

			b1 := b - ei - y[i]*(aiNew-ai)*k.At(i, i) - y[j]*(ajNew-aj)*k.At(i, j)
			b2 := b - ej - y[i]*(aiNew-ai)*k.At(i, j) - y[j]*(ajNew-aj)*k.At(j, j)
			switch {
			case aiNew > 0 && aiNew < cfg.C:
				b = b1
			case ajNew > 0 && ajNew < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Keep only support vectors.
	var svIdx []int
	for i, a := range alpha {
		if a > 1e-8 {
			svIdx = append(svIdx, i)
		}
	}
	m := &binarySVM{
		svX:   mat.New(len(svIdx), x.Cols),
		svY:   make([]float64, len(svIdx)),
		alpha: make([]float64, len(svIdx)),
		bias:  b,
		gamma: gamma,
	}
	for kk, i := range svIdx {
		copy(m.svX.Row(kk), x.Row(i))
		m.svY[kk] = y[i]
		m.alpha[kk] = alpha[i]
	}
	return m
}

// Predict labels rows by one-vs-one voting; ties break on summed decision
// margins (libsvm's behaviour), each class's margin summed in (a, b) pair
// order so a near-tie resolves the same way on every call.
func (c *Classifier) Predict(x *mat.Matrix) ([]int, error) {
	if c.machines == nil {
		return nil, errors.New("svm: not fitted")
	}
	if x.Cols != c.numFeats {
		return nil, fmt.Errorf("svm: %d features, fitted on %d", x.Cols, c.numFeats)
	}
	out := make([]int, x.Rows)
	votes := make([]int, len(c.classes))
	margin := make([]float64, len(c.classes))
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		clear(votes)
		clear(margin)
		for _, m := range c.machines {
			d := m.decision(row)
			if d >= 0 {
				votes[m.a]++
			} else {
				votes[m.b]++
			}
			margin[m.a] += d
			margin[m.b] -= d
		}
		best := 0
		for k := 1; k < len(c.classes); k++ {
			if votes[k] > votes[best] || (votes[k] == votes[best] && margin[k] > margin[best]) {
				best = k
			}
		}
		out[i] = c.classes[best]
	}
	return out, nil
}
