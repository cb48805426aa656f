package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randomProblem builds an n-row, d-feature training set with k random
// labels — enough structure to grow real splits, no structure that could
// mask a traversal bug behind constant leaves.
func randomProblem(rng *rand.Rand, n, d, k int) (*mat.Matrix, []int) {
	x := mat.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64()*3)
		}
		y[i] = rng.Intn(k)
	}
	return x, y
}

// hostileRows builds an evaluation batch whose rows mix ordinary values
// with NaN, ±Inf, exact zeros, and huge magnitudes, so the flat walk's
// comparison semantics (NaN routes right, same as `!(v <= thr)`) are
// pinned on every edge the pointer walk has.
func hostileRows(rng *rand.Rand, rows, d int) *mat.Matrix {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 5e-324}
	x := mat.New(rows, d)
	for i := 0; i < rows; i++ {
		for j := 0; j < d; j++ {
			if rng.Intn(3) == 0 {
				x.Set(i, j, specials[rng.Intn(len(specials))])
			} else {
				x.Set(i, j, rng.NormFloat64()*3)
			}
		}
	}
	return x
}

// pointerOnly clones a fitted forest without its flat form — the
// hand-populated value PredictProbaBatch must refuse.
func pointerOnly(f *Classifier) *Classifier {
	return &Classifier{cfg: f.cfg, trees: f.trees, numClasses: f.numClasses, numFeats: f.numFeats}
}

// TestEquivalenceFlatForest pins the flat node-array kernel bit-identical
// to the serial per-row pointer-tree walk, across ensemble shapes, worker
// counts, and hostile inputs including empty and single-row batches.
func TestEquivalenceFlatForest(t *testing.T) {
	cases := []struct {
		name                     string
		trees, depth, classes, d int
	}{
		{"shallow-binary", 5, 2, 2, 3},
		{"deep-binary", 20, 0, 2, 5},
		{"multiclass", 15, 6, 5, 7},
		{"stumps-manyclass", 40, 1, 8, 4},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := randomProblem(rng, 240, tc.d, tc.classes)
			f := New(Config{NumTrees: tc.trees, MaxDepth: tc.depth, Seed: 9, Bootstrap: true, Workers: 3})
			if err := f.Fit(x, y, tc.classes); err != nil {
				t.Fatal(err)
			}
			if f.flat == nil {
				t.Fatal("Fit left no compiled flat form")
			}
			if _, err := pointerOnly(f).PredictProbaBatch(x); err == nil {
				t.Fatal("PredictProbaBatch accepted a classifier with no compiled flat form")
			}
			for _, rows := range []int{0, 1, 37} {
				ev := hostileRows(rng, rows, tc.d)
				got, err := f.PredictProbaBatch(ev)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := f.PredictProba(ev)
				if err != nil {
					t.Fatal(err)
				}
				for i := range serial.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(serial.Data[i]) {
						t.Fatalf("rows=%d: element %d: flat %v vs serial %v", rows, i, got.Data[i], serial.Data[i])
					}
				}
			}
		})
	}
}

// BenchmarkPredictProbaBatch times the flat kernel on the shape one fleet
// tick hands it: 256 rows of the 28 covariance features, 26 classes, the
// 50-tree forest of Table V's smallest grid point.
func BenchmarkPredictProbaBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomProblem(rng, 512, 28, 26)
	f := New(Config{NumTrees: 50, Bootstrap: true, Seed: 1})
	if err := f.Fit(x, y, 26); err != nil {
		b.Fatal(err)
	}
	batch, _ := randomProblem(rng, 256, 28, 26)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := f.PredictProbaBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestFlatForestCompiledShape checks the relayout invariants the kernel
// relies on: one root per tree, right child adjacent to left, and leaf
// probability blocks of exactly numClasses.
func TestFlatForestCompiledShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := randomProblem(rng, 120, 4, 3)
	f := New(Config{NumTrees: 8, MaxDepth: 5, Seed: 3, Bootstrap: true})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	fl := f.flat
	if len(fl.roots) != 8 {
		t.Fatalf("%d roots for 8 trees", len(fl.roots))
	}
	if len(fl.feat) != len(fl.thr) || len(fl.feat) != len(fl.kids) {
		t.Fatalf("ragged arrays: %d/%d/%d", len(fl.feat), len(fl.thr), len(fl.kids))
	}
	if len(fl.probs)%fl.numClasses != 0 {
		t.Fatalf("probs length %d not a multiple of %d classes", len(fl.probs), fl.numClasses)
	}
	for id, ft := range fl.feat {
		if ft < 0 {
			if off := int(fl.kids[id]); off < 0 || off+fl.numClasses > len(fl.probs) {
				t.Fatalf("leaf %d has out-of-range probs offset %d", id, off)
			}
			continue
		}
		if k := int(fl.kids[id]); k <= id || k+1 >= len(fl.feat) {
			t.Fatalf("node %d has out-of-range children at %d", id, k)
		}
	}
}
