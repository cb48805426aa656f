package forest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tree"
	"repro/internal/wire"
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
			f := New(Config{NumTrees: tc.trees, MaxDepth: tc.depth, Seed: 9, Bootstrap: true})
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
				requireBitIdentical(t, f, hostileRows(rng, rows, tc.d))
			}
		})
	}
}

// requireBitIdentical fails unless the flat kernel's scores for ev match
// the serial pointer walk's under math.Float64bits.
func requireBitIdentical(t *testing.T, f *Classifier, ev *mat.Matrix) {
	t.Helper()
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
			t.Fatalf("rows=%d: element %d: flat %v vs serial %v", ev.Rows, i, got.Data[i], serial.Data[i])
		}
	}
}

// hostileLeafPayload hand-writes a forest payload of three 4-class trees
// over 2 features whose leaves hold what no fit produces — −0, NaN, ±Inf,
// negative values and all-zero distributions — beside one-hot and
// multi-entry ones. Each tree is a full depth-2 split on both features.
func hostileLeafPayload(t *testing.T) []byte {
	t.Helper()
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	leaves := [][4][]float64{
		{{0, 0, 1, 0}, {negZero, 0, 0, 0}, {-0.5, 1.5, 0, negZero}, {0, 0, 0, 0}},
		{{0, negZero, 0, -2}, {negZero, 0.25, negZero, 0.75}, {nan, 0, 0, 0}, {0, 1, 0, 0}},
		{{math.Inf(1), 0, math.Inf(-1), 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0.125, negZero, -3, 4}},
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.U16(codecVersion)
	w.Int(len(leaves))
	w.Int(0)     // MaxDepth
	w.Int(0)     // MaxFeatures
	w.Int(0)     // MinSamplesLeaf
	w.Bool(true) // Bootstrap
	w.Int(1)     // retired Workers slot, read and discarded
	w.I64(0)     // Seed
	w.Int(4)     // classes
	w.Int(2)     // features
	w.Int(len(leaves))
	for ti, ls := range leaves {
		w.U16(1) // tree codec version
		w.Int(0) // MaxDepth
		w.Int(2) // MinSamplesSplit
		w.Int(1) // MinSamplesLeaf
		w.Int(2) // MaxFeatures
		w.I64(int64(ti))
		w.Int(4) // classes
		w.Int(2) // features
		w.Int(7) // nodes
		split := func(feat int, thr float64, left, right int) {
			w.Bool(false)
			w.Int(feat)
			w.F64(thr)
			w.Int(left)
			w.Int(right)
		}
		split(0, 0, 1, 2)
		split(1, -0.5, 3, 4)
		split(1, 0.5, 5, 6)
		for _, p := range ls {
			w.Bool(true)
			w.F64s(p)
		}
		w.F64s([]float64{0.5, 0.5}) // importances
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEquivalenceFlatForestSparseLeaves pins the sparse leaf encoding
// bit-identical to the serial walk where it is not one-hot: multi-entry
// leaves of a fitted MinSamplesLeaf forest, and a decoded payload whose
// leaves hold −0, NaN, ±Inf, negative values and all-zero distributions.
func TestEquivalenceFlatForestSparseLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t.Run("min-samples-leaf", func(t *testing.T) {
		x, y := randomProblem(rng, 240, 5, 4)
		f := New(Config{NumTrees: 12, MinSamplesLeaf: 8, Seed: 5, Bootstrap: true})
		if err := f.Fit(x, y, 4); err != nil {
			t.Fatal(err)
		}
		if len(f.flat.Layout().Entries) == 0 {
			t.Fatal("MinSamplesLeaf 8 compiled no multi-entry leaf")
		}
		for _, rows := range []int{1, 37} {
			requireBitIdentical(t, f, hostileRows(rng, rows, 5))
		}
	})
	t.Run("hostile-payload", func(t *testing.T) {
		f, err := Decode(bytes.NewReader(hostileLeafPayload(t)))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.flat.Layout().Entries) == 0 {
			t.Fatal("hostile payload compiled no multi-entry leaf")
		}
		leaves := 0
		for _, ft := range f.flat.Layout().Feat {
			if ft < 0 {
				leaves++
			}
		}
		if leaves != 12 {
			t.Fatalf("%d of 12 leaves compiled as leaves", leaves)
		}
		for _, rows := range []int{1, 37, 64} {
			requireBitIdentical(t, f, hostileRows(rng, rows, 2))
		}
	})
}

// BenchmarkPredictProbaBatch times the flat kernel on the shapes a fleet
// tick hands it: rows of the 28 covariance features, 26 classes, the
// 50-tree forest of Table V's smallest grid point. rows=256 is a full tick
// and rows=2 a sparse tick's two dirty jobs. Both rungs score rows of one
// seeded batch.
func BenchmarkPredictProbaBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomProblem(rng, 512, 28, 26)
	f := New(Config{NumTrees: 50, Bootstrap: true, Seed: 1})
	if err := f.Fit(x, y, 26); err != nil {
		b.Fatal(err)
	}
	full, _ := randomProblem(rng, 256, 28, 26)
	for _, rows := range []int{2, 256} {
		batch := &mat.Matrix{Rows: rows, Cols: full.Cols, Data: full.Data[:rows*full.Cols]}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := f.PredictProbaBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestFlatForestCompiledShape checks the relayout invariants the kernel
// relies on: one root per tree, right child adjacent to left, inline leaves
// of an in-range class, and k-entry leaves whose entries lie in the table,
// are nonzero, and name a class below numClasses. An unpruned forest's
// leaves are one-hot, so it must compile to inline leaves only.
func TestFlatForestCompiledShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := randomProblem(rng, 120, 4, 3)
	f := New(Config{NumTrees: 8, MaxDepth: 5, Seed: 3, Bootstrap: true})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	fl := f.flat.Layout()
	if len(fl.Roots) != 8 {
		t.Fatalf("%d roots for 8 trees", len(fl.Roots))
	}
	if len(fl.Feat) != len(fl.Thr) || len(fl.Feat) != len(fl.Kids) {
		t.Fatalf("ragged arrays: %d/%d/%d", len(fl.Feat), len(fl.Thr), len(fl.Kids))
	}
	for i, root := range fl.Roots {
		if i > 0 && root <= fl.Roots[i-1] {
			t.Fatalf("root %d at %d does not follow root %d at %d", i, root, i-1, fl.Roots[i-1])
		}
	}
	if multi := checkFlatShape(t, fl, 3); multi == 0 {
		t.Fatal("MaxDepth 5 compiled no multi-entry leaf")
	}

	unpruned := New(Config{NumTrees: 8, Seed: 3, Bootstrap: true})
	if err := unpruned.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	ufl := unpruned.flat.Layout()
	if multi := checkFlatShape(t, ufl, 3); multi != 0 || len(ufl.Entries) != 0 {
		t.Fatalf("unpruned forest compiled %d multi-entry leaves and a %d-entry table, want inline leaves only",
			multi, len(ufl.Entries))
	}
}

// checkFlatShape checks every node of fl, compiled for nc classes, and
// returns how many leaves use the entry table.
func checkFlatShape(t *testing.T, fl tree.Layout, nc int32) (multi int) {
	t.Helper()
	for id, ft := range fl.Feat {
		switch {
		case ft >= 0:
			if k := int(fl.Kids[id]); k <= id || k+1 >= len(fl.Feat) {
				t.Fatalf("node %d has out-of-range children at %d", id, k)
			}
		case ft == -1:
			if c := fl.Kids[id]; c < 0 || c >= nc || fl.Thr[id] == 0 {
				t.Fatalf("inline leaf %d holds %v for class %d of %d", id, fl.Thr[id], c, nc)
			}
		default:
			multi++
			off, k := int(fl.Kids[id]), int(-ft)
			if off < 0 || off+k > len(fl.Entries) {
				t.Fatalf("leaf %d has %d entries at out-of-range offset %d", id, k, off)
			}
			for _, e := range fl.Entries[off : off+k] {
				if e.Class < 0 || e.Class >= nc || e.Value == 0 {
					t.Fatalf("leaf %d holds %v for class %d of %d", id, e.Value, e.Class, nc)
				}
			}
		}
	}
	return multi
}
