package forest

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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

// TestForestFailedFitKeepsLastGoodFit: a Fit that fails — here on a label
// out of range — leaves the forest as the last good Fit left it, the same
// predictions, importances and encoded bytes; with no good Fit before it,
// the forest stays unfitted: Encode refuses it and FeatureImportances is
// empty.
func TestForestFailedFitKeepsLastGoodFit(t *testing.T) {
	x, y := randomProblem(rand.New(rand.NewSource(41)), 60, 4, 3)
	bad := append([]int(nil), y...)
	bad[17] = 5
	snapshot := func(f *Classifier) (string, []float64, []byte) {
		probs, err := f.PredictProba(x)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(probs.Data), f.FeatureImportances(), buf.Bytes()
	}

	f := New(Config{NumTrees: 9, Bootstrap: true, Seed: 3})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	probs, imp, enc := snapshot(f)
	if err := f.Fit(x, bad, 3); err == nil {
		t.Fatal("Fit accepted label 5 of 3 classes")
	}
	if p, i, e := snapshot(f); p != probs || !slices.Equal(i, imp) || !bytes.Equal(e, enc) {
		t.Fatal("a failed Fit changed the last good fit's predictions, importances or encoding")
	}

	unfitted := New(Config{NumTrees: 9, Bootstrap: true, Seed: 3})
	if err := unfitted.Fit(x, bad, 3); err == nil {
		t.Fatal("Fit accepted label 5 of 3 classes")
	}
	if err := unfitted.Encode(io.Discard); err == nil {
		t.Fatal("Encode wrote a forest no Fit succeeded on")
	}
	if imp := unfitted.FeatureImportances(); len(imp) != 0 || unfitted.NumTrees() != 0 {
		t.Fatalf("unfitted forest: importances %v, %d trees", imp, unfitted.NumTrees())
	}
}
