// Package svm implements support-vector classification: a kernel C-SVC
// trained with sequential minimal optimization (SMO) and one-vs-one
// multiclass voting — the semantics of scikit-learn's SVC used by the
// paper's SVM baselines — plus a fast linear one-vs-rest variant for
// ablations.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
)

// Kernel computes inner products in feature space.
type Kernel interface {
	Compute(a, b []float64) float64
	Name() string
}

// RBFKernel is exp(-γ‖a-b‖²). Gamma ≤ 0 requests scikit-learn's "scale"
// heuristic, resolved when fitting: γ = 1/(d·Var(X)).
type RBFKernel struct{ Gamma float64 }

// Compute evaluates the kernel for two feature rows.
func (k RBFKernel) Compute(a, b []float64) float64 {
	var d2 float64
	for i, v := range a {
		d := v - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// Name identifies the kernel in reports.
func (k RBFKernel) Name() string { return "rbf" }

// LinearKernel is the plain dot product.
type LinearKernel struct{}

// Compute evaluates the kernel for two feature rows.
func (LinearKernel) Compute(a, b []float64) float64 { return mat.Dot(a, b) }

// Name identifies the kernel in reports.
func (LinearKernel) Name() string { return "linear" }

// Config controls SVC training.
type Config struct {
	// C is the soft-margin penalty (the paper grid-searches 0.1, 1, 10).
	C float64
	// Kernel defaults to RBF with the "scale" gamma when nil.
	Kernel Kernel
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses is the number of full no-change passes before convergence
	// is declared.
	MaxPasses int
	// MaxIter caps total optimisation sweeps as a safety net.
	MaxIter int
	// Seed drives SMO's random partner selection.
	Seed int64
}

// DefaultConfig mirrors scikit-learn's SVC defaults.
func DefaultConfig() Config {
	return Config{C: 1, Tol: 1e-3, MaxPasses: 3, MaxIter: 200}
}

// binarySVM is one SMO-trained two-class machine.
type binarySVM struct {
	svX    *mat.Matrix
	svY    []float64
	alpha  []float64
	b      float64
	kernel Kernel
}

// decision evaluates Σ αᵢyᵢK(xᵢ,x) + b.
func (m *binarySVM) decision(row []float64) float64 {
	s := m.b
	for i := 0; i < m.svX.Rows; i++ {
		s += m.alpha[i] * m.svY[i] * m.kernel.Compute(m.svX.Row(i), row)
	}
	return s
}

// Classifier is a fitted one-vs-one multiclass SVC.
type Classifier struct {
	cfg      Config
	classes  []int
	machines map[[2]int]*binarySVM
	gamma    float64 // resolved RBF gamma (0 for non-RBF kernels)
	numFeats int
}

// New returns an unfitted classifier.
func New(cfg Config) *Classifier {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 3
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	return &Classifier{cfg: cfg}
}

// GammaScale computes scikit-learn's "scale" heuristic: 1/(d·Var(X)) over
// all matrix entries.
func GammaScale(x *mat.Matrix) float64 {
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

	kernel := c.cfg.Kernel
	if kernel == nil {
		kernel = RBFKernel{}
	}
	if rbf, ok := kernel.(RBFKernel); ok && rbf.Gamma <= 0 {
		c.gamma = GammaScale(x)
		kernel = RBFKernel{Gamma: c.gamma}
	}

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

	c.machines = make(map[[2]int]*binarySVM)
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
			m, err := trainSMO(sub, ys, kernel, c.cfg)
			if err != nil {
				return fmt.Errorf("svm: pair (%d,%d): %w", ca, cb, err)
			}
			c.machines[[2]int{ca, cb}] = m
		}
	}
	return nil
}

// trainSMO runs simplified SMO (Platt) with a precomputed kernel matrix.
func trainSMO(x *mat.Matrix, y []float64, kernel Kernel, cfg Config) (*binarySVM, error) {
	n := x.Rows
	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel.Compute(x.Row(i), x.Row(j))
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
	for iter := 0; passes < cfg.MaxPasses && iter < cfg.MaxIter; iter++ {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (y[i]*ei > cfg.Tol && alpha[i] > 0)) {
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
		svX:    mat.New(len(svIdx), x.Cols),
		svY:    make([]float64, len(svIdx)),
		alpha:  make([]float64, len(svIdx)),
		b:      b,
		kernel: kernel,
	}
	for kk, i := range svIdx {
		copy(m.svX.Row(kk), x.Row(i))
		m.svY[kk] = y[i]
		m.alpha[kk] = alpha[i]
	}
	return m, nil
}

// Predict labels rows by one-vs-one voting; ties break on summed decision
// margins (libsvm's behaviour).
func (c *Classifier) Predict(x *mat.Matrix) ([]int, error) {
	if c.machines == nil {
		return nil, errors.New("svm: not fitted")
	}
	if x.Cols != c.numFeats {
		return nil, fmt.Errorf("svm: %d features, fitted on %d", x.Cols, c.numFeats)
	}
	out := make([]int, x.Rows)
	votes := make(map[int]float64, len(c.classes))
	margin := make(map[int]float64, len(c.classes))
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for k := range votes {
			delete(votes, k)
		}
		for k := range margin {
			delete(margin, k)
		}
		for pair, m := range c.machines {
			d := m.decision(row)
			if d >= 0 {
				votes[pair[0]]++
			} else {
				votes[pair[1]]++
			}
			margin[pair[0]] += d
			margin[pair[1]] -= d
		}
		best := c.classes[0]
		for _, cls := range c.classes[1:] {
			if votes[cls] > votes[best] ||
				(votes[cls] == votes[best] && margin[cls] > margin[best]) {
				best = cls
			}
		}
		out[i] = best
	}
	return out, nil
}

// Gamma returns the resolved RBF gamma (0 when not using RBF "scale").
func (c *Classifier) Gamma() float64 { return c.gamma }
