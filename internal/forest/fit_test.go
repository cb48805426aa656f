package forest

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
)

// fitProblem is the benchmark's training shape, seeded and synthetic: 1 223
// rows of 28 features, 26 classes, each row its class centroid plus noise
// wide enough that the classes overlap.
func fitProblem(seed int64) (*mat.Matrix, []int) {
	const n, d, k = 1223, 28, 26
	rng := rand.New(rand.NewSource(seed))
	centroids := mat.New(k, d)
	for i := range centroids.Data {
		centroids.Data[i] = rng.NormFloat64() * 2
	}
	x := mat.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % k
		for j := 0; j < d; j++ {
			x.Set(i, j, centroids.At(y[i], j)+rng.NormFloat64()*1.5)
		}
	}
	return x, y
}

// BenchmarkFit times one 100-tree forest fit, Table V's RF-Cov shape, on
// the benchmark's 1 223×28 training shape.
func BenchmarkFit(b *testing.B) {
	x, y := fitProblem(1)
	b.ReportAllocs()
	for b.Loop() {
		f := New(Config{NumTrees: 100, Bootstrap: true, Seed: 1})
		if err := f.Fit(x, y, 26); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForestFitRefusesNonFinite: NaN, +Inf and −Inf in a training feature
// are refused with the row and column named, before any tree grows.
func TestForestFitRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rng := rand.New(rand.NewSource(40))
		x, y := randomProblem(rng, 40, 3, 2)
		x.Set(31, 0, bad)
		err := New(Config{NumTrees: 5, Bootstrap: true}).Fit(x, y, 2)
		if err == nil || !strings.Contains(err.Error(), "row 31, column 0") {
			t.Errorf("%v: Fit error %v, want one naming row 31, column 0", bad, err)
		}
	}
}
