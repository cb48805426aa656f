package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Errorf("Row(1)[2] = %v, want 7.5", got)
	}
	col := m.Col(2)
	if col[1] != 7.5 || len(col) != 3 {
		t.Errorf("Col(2) = %v", col)
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice(2, 2, []float64{1, 2, 3}); err == nil {
		t.Error("FromSlice with wrong length should fail")
	}
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Errorf("FromRows gave %v", m)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("ragged FromRows should fail")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Errorf("FromRows(nil) = %v, %v", empty, err)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T() shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("T() content wrong: %v", tr)
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", c, want)
	}
	if _, err := Mul(a, New(3, 2)); err == nil {
		t.Error("mismatched Mul should fail")
	}
}

func TestMulTransInto(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b, _ := FromRows([][]float64{{1, 0, 1}, {0, 1, 0}})
	dst := New(2, 2)
	MulTransInto(dst, a, b)
	bt := b.T()
	want, _ := Mul(a, bt)
	if !Equal(dst, want, 1e-12) {
		t.Errorf("MulTransInto = %v, want %v", dst, want)
	}
}

func TestIdentityMulProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := New(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		prod, err := Mul(m, Identity(n))
		if err != nil {
			return false
		}
		return Equal(prod, m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return Equal(m.T().T(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAddScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{3, 4}})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 6 {
		t.Errorf("Add gave %v", a)
	}
	a.Scale(0.5)
	if a.At(0, 0) != 2 {
		t.Errorf("Scale gave %v", a)
	}
	if err := a.Add(New(2, 2)); err == nil {
		t.Error("mismatched Add should fail")
	}
}

func TestColumnMeansStds(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 10}, {3, 30}})
	means := ColumnMeans(m)
	if means[0] != 2 || means[1] != 20 {
		t.Errorf("means = %v", means)
	}
	stds := ColumnStds(m, means)
	if math.Abs(stds[0]-1) > 1e-12 || math.Abs(stds[1]-10) > 1e-12 {
		t.Errorf("stds = %v", stds)
	}
}

func TestCovariance(t *testing.T) {
	// Two perfectly correlated columns.
	m, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}})
	cov, err := Covariance(m, true)
	if err != nil {
		t.Fatal(err)
	}
	// Var(col0) with N-1: mean 2.5, sum sq dev = 5, /3.
	if math.Abs(cov.At(0, 0)-5.0/3.0) > 1e-12 {
		t.Errorf("cov[0,0] = %v", cov.At(0, 0))
	}
	if math.Abs(cov.At(0, 1)-2*cov.At(0, 0)) > 1e-12 {
		t.Errorf("cov[0,1] = %v, want %v", cov.At(0, 1), 2*cov.At(0, 0))
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Error("covariance not symmetric")
	}
	if _, err := Covariance(New(1, 2), true); err == nil {
		t.Error("covariance of one row should fail")
	}
}

func TestCovarianceUncentered(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	cov, err := Covariance(m, false)
	if err != nil {
		t.Fatal(err)
	}
	// Raw XᵀX / (n-1): X^T X = [[2,1],[1,2]].
	if math.Abs(cov.At(0, 0)-1) > 1e-12 || math.Abs(cov.At(0, 1)-0.5) > 1e-12 {
		t.Errorf("uncentered cov = %v", cov)
	}
}

func TestCovarianceSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 3+r.Intn(20), 1+r.Intn(6)
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64() * 3
		}
		cov, err := Covariance(m, true)
		if err != nil {
			return false
		}
		for i := 0; i < cols; i++ {
			if cov.At(i, i) < -1e-12 {
				return false // variance must be non-negative
			}
			for j := 0; j < cols; j++ {
				if math.Abs(cov.At(i, j)-cov.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVectorKernels(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy gave %v", y)
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Error("Norm2 wrong")
	}
	if Mean([]float64{2, 4}) != 3 || Mean(nil) != 0 {
		t.Error("Mean wrong")
	}
	if Variance([]float64{1, 3}) != 1 {
		t.Errorf("Variance = %v", Variance([]float64{1, 3}))
	}
	if ArgMax([]float64{1, 5, 3}) != 1 || ArgMax(nil) != -1 {
		t.Error("ArgMax wrong")
	}
	if Clip(5, 0, 3) != 3 || Clip(-1, 0, 3) != 0 || Clip(2, 0, 3) != 2 {
		t.Error("Clip wrong")
	}
}
