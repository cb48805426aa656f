package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func blobs(n, k int, spread float64, seed int64) (*mat.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		angle := 2 * math.Pi * float64(c) / float64(k)
		x.Set(i, 0, 4*math.Cos(angle)+rng.NormFloat64()*spread)
		x.Set(i, 1, 4*math.Sin(angle)+rng.NormFloat64()*spread)
		y[i] = c
	}
	return x, y
}

// ringData builds a radially-separable two-class problem a linear machine
// cannot solve but RBF can.
func ringData(n int, seed int64) (*mat.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		var r float64
		if i%2 == 0 {
			r = 1 + rng.NormFloat64()*0.1
		} else {
			r = 3 + rng.NormFloat64()*0.1
			y[i] = 1
		}
		a := rng.Float64() * 2 * math.Pi
		x.Set(i, 0, r*math.Cos(a))
		x.Set(i, 1, r*math.Sin(a))
	}
	return x, y
}

func accuracy(t *testing.T, pred, y []int) float64 {
	t.Helper()
	c := 0
	for i, p := range pred {
		if p == y[i] {
			c++
		}
	}
	return float64(c) / float64(len(y))
}

func TestSVCRBFSolvesRings(t *testing.T) {
	x, y := ringData(200, 2)
	c := New(Config{C: 10, Seed: 1})
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := ringData(100, 3)
	pred, err := c.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, pred, yt); acc < 0.95 {
		t.Errorf("RBF ring accuracy %v", acc)
	}
	if c.gamma <= 0 {
		t.Error("scale gamma not resolved")
	}
}

func TestLinearCannotSolveRings(t *testing.T) {
	// Sanity for the RBF test: the same data defeats a linear machine.
	x, y := ringData(200, 2)
	c := NewLinear(LinearConfig{})
	if err := c.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	pred, _ := c.Predict(x)
	if acc := accuracy(t, pred, y); acc > 0.8 {
		t.Errorf("linear machine should fail on rings, got %v", acc)
	}
}

func TestSVCMulticlassOvO(t *testing.T) {
	x, y := blobs(240, 4, 0.6, 5)
	c := New(Config{C: 1, Seed: 2})
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := len(c.machines); got != 6 {
		t.Errorf("4 classes need 6 OvO machines, got %d", got)
	}
	xt, yt := blobs(120, 4, 0.6, 6)
	pred, err := c.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, pred, yt); acc < 0.95 {
		t.Errorf("multiclass accuracy %v", acc)
	}
}

// supportVectors totals the support vectors kept across pairwise machines.
func supportVectors(c *Classifier) int {
	n := 0
	for _, m := range c.machines {
		n += m.svX.Rows
	}
	return n
}

func TestSVCSupportVectorsSubset(t *testing.T) {
	x, y := blobs(200, 2, 0.5, 7)
	c := New(Config{C: 1, Seed: 3})
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if supportVectors(c) == 0 {
		t.Fatal("no support vectors kept")
	}
	if supportVectors(c) >= 200 {
		t.Errorf("all %d points became support vectors on well-separated data", supportVectors(c))
	}
}

func TestSVCErrors(t *testing.T) {
	c := New(Config{})
	if err := c.Fit(mat.New(2, 2), []int{0}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := c.Fit(mat.New(0, 2), nil); err == nil {
		t.Error("empty training set should fail")
	}
	if err := c.Fit(mat.New(3, 2), []int{1, 1, 1}); err == nil {
		t.Error("single class should fail")
	}
	if _, err := c.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
	x, y := blobs(40, 2, 0.5, 8)
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(mat.New(1, 5)); err == nil {
		t.Error("feature mismatch should fail")
	}
}

func TestGammaScale(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{0, 0}, {2, 2}})
	// All entries: 0,0,2,2 → var = 1, d=2 → gamma = 0.5.
	if g := gammaScale(x); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("gammaScale = %v, want 0.5", g)
	}
	if g := gammaScale(mat.New(2, 3)); g != 1.0/3 {
		t.Errorf("gammaScale on constant data = %v, want 1/3", g)
	}
}

func TestSVCRegularizationEffect(t *testing.T) {
	// Small C must keep more (bounded) support vectors than large C on
	// overlapping data.
	x, y := blobs(160, 2, 2.0, 9)
	weak := New(Config{C: 0.01, Seed: 4})
	if err := weak.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	strong := New(Config{C: 100, Seed: 4})
	if err := strong.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if supportVectors(weak) <= supportVectors(strong) {
		t.Errorf("C=0.01 kept %d SVs, C=100 kept %d; expected more for small C",
			supportVectors(weak), supportVectors(strong))
	}
}

func TestLinearClassifierBlobs(t *testing.T) {
	x, y := blobs(300, 3, 0.7, 11)
	c := NewLinear(LinearConfig{C: 1, Seed: 5})
	if err := c.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	xt, yt := blobs(150, 3, 0.7, 12)
	pred, err := c.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, pred, yt); acc < 0.93 {
		t.Errorf("linear OvR accuracy %v", acc)
	}
}

func TestLinearDecisionFunctionShape(t *testing.T) {
	x, y := blobs(60, 3, 0.5, 13)
	c := NewLinear(LinearConfig{})
	if err := c.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	df, err := c.DecisionFunction(x)
	if err != nil {
		t.Fatal(err)
	}
	if df.Rows != 60 || df.Cols != 3 {
		t.Errorf("decision shape %dx%d", df.Rows, df.Cols)
	}
}

func TestLinearErrors(t *testing.T) {
	c := NewLinear(LinearConfig{})
	if err := c.Fit(mat.New(2, 2), []int{0}, 2); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := c.Fit(mat.New(0, 2), nil, 2); err == nil {
		t.Error("empty set should fail")
	}
	if err := c.Fit(mat.New(2, 2), []int{0, 0}, 1); err == nil {
		t.Error("single class should fail")
	}
	if _, err := c.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
}

func TestSVCDeterminism(t *testing.T) {
	x, y := blobs(100, 3, 1.0, 15)
	c1 := New(Config{C: 1, Seed: 9})
	c2 := New(Config{C: 1, Seed: 9})
	if err := c1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := c2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1, _ := c1.Predict(x)
	p2, _ := c2.Predict(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different SVMs")
		}
	}
}

// pairOrderPredict is Predict's specification: every (a, b) machine in pair
// order votes, each class's margin is summed in that order, and a vote tie
// goes to the larger margin, then to the lower class. ties counts the rows
// whose top vote count is shared.
func pairOrderPredict(t *testing.T, c *Classifier, x *mat.Matrix) (pred []int, ties int) {
	t.Helper()
	n := len(c.classes)
	pred = make([]int, x.Rows)
	for i := range pred {
		votes := make([]int, n)
		margin := make([]float64, n)
		k := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				m := c.machines[k]
				if m.a != a || m.b != b {
					t.Fatalf("machine %d separates (%d,%d), want (%d,%d)", k, m.a, m.b, a, b)
				}
				k++
				d := m.decision(x.Row(i))
				if d >= 0 {
					votes[a]++
				} else {
					votes[b]++
				}
				margin[a] += d
				margin[b] -= d
			}
		}
		best, shared := 0, false
		for cls := 1; cls < n; cls++ {
			switch {
			case votes[cls] > votes[best]:
				best, shared = cls, false
			case votes[cls] == votes[best]:
				shared = true
				if margin[cls] > margin[best] {
					best = cls
				}
			}
		}
		if shared {
			ties++
		}
		pred[i] = c.classes[best]
	}
	return pred, ties
}

// TestSVCVotingFollowsPairOrder fits eight classes on a ring and scores
// rows near its centre, where about half the one-vs-one votes tie: every
// call must match the pair-order reference, so a near-tie cannot resolve
// differently from one call to the next.
func TestSVCVotingFollowsPairOrder(t *testing.T) {
	x, y := blobs(240, 8, 1.0, 21)
	c := New(Config{C: 1, Seed: 7})
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	xt := mat.New(200, 2)
	for i := range xt.Data {
		xt.Data[i] = rng.NormFloat64() * 0.3
	}
	want, ties := pairOrderPredict(t, c, xt)
	if ties < xt.Rows/4 {
		t.Fatalf("only %d of %d rows tie on votes: the problem does not exercise the tie-break", ties, xt.Rows)
	}
	for call := 0; call < 20; call++ {
		got, err := c.Predict(xt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("call %d row %d: Predict %d, pair-order reference %d", call, i, got[i], want[i])
			}
		}
	}
	t.Logf("%d of %d rows broke a vote tie on margins", ties, xt.Rows)
}
