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

// snapToThresholds sets about one value in four of x to a threshold one of
// f's trees splits that feature at, so both walks meet v == thr, which
// `<=` sends left.
func snapToThresholds(rng *rand.Rand, x *mat.Matrix, f *Classifier) {
	thresholds := make([][]float64, x.Cols)
	for _, tr := range f.trees {
		for _, nd := range tr.ExportNodes() {
			if !nd.Leaf {
				thresholds[nd.Feature] = append(thresholds[nd.Feature], nd.Threshold)
			}
		}
	}
	for i := range x.Data {
		if at := thresholds[i%x.Cols]; len(at) > 0 && rng.Intn(4) == 0 {
			x.Data[i] = at[rng.Intn(len(at))]
		}
	}
}

// pointerOnly clones a fitted forest without its flat form — the
// hand-populated value every predict method must refuse.
func pointerOnly(f *Classifier) *Classifier {
	return &Classifier{cfg: f.cfg, trees: f.trees}
}

// onEachPath runs fn as one subtest per kernel path with tree.ScoreBlock
// forced onto it. A path the CPU cannot run is skipped, and the skip says
// why.
func onEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, path := range []string{tree.ScalarPath, tree.AVX512Path} {
		t.Run(path, func(t *testing.T) {
			prev, ok := tree.SetKernelPath(path)
			if !ok {
				t.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s walk is not run", path)
			}
			defer tree.SetKernelPath(prev)
			fn(t)
		})
	}
}

// TestEquivalenceFlatForest pins the flat node-array kernel bit-identical
// to the per-tree pointer walk (pointerWalk) on both kernel paths, across
// ensemble shapes and hostile inputs including empty and single-row
// batches. 40 trees are one 32-tree vector group and eight scalar lanes,
// 70 two groups and six.
func TestEquivalenceFlatForest(t *testing.T) {
	cases := []struct {
		name                     string
		trees, depth, classes, d int
	}{
		{"shallow-binary", 5, 2, 2, 3},
		{"deep-binary", 20, 0, 2, 5},
		{"multiclass", 15, 6, 5, 7},
		{"stumps-manyclass", 40, 1, 8, 4},
		{"deep-multiclass", 70, 0, 5, 7},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := randomProblem(rng, 240, tc.d, tc.classes)
			f := New(Config{NumTrees: tc.trees, MaxDepth: tc.depth, Seed: 9, Bootstrap: true})
			if err := f.Fit(x, y, tc.classes); err != nil {
				t.Fatal(err)
			}
			if f.Flat() == nil {
				t.Fatal("Fit left no compiled flat form")
			}
			p := pointerOnly(f)
			if _, err := p.PredictProba(x); err == nil {
				t.Fatal("PredictProba accepted a classifier with no compiled flat form")
			}
			if _, err := p.PredictProbaBatch(x); err == nil {
				t.Fatal("PredictProbaBatch accepted a classifier with no compiled flat form")
			}
			if _, err := p.Predict(x); err == nil {
				t.Fatal("Predict accepted a classifier with no compiled flat form")
			}
			evs := []*mat.Matrix{hostileRows(rng, 0, tc.d), hostileRows(rng, 1, tc.d), hostileRows(rng, 37, tc.d)}
			for _, ev := range evs {
				snapToThresholds(rng, ev, f)
			}
			onEachPath(t, func(t *testing.T) {
				for _, ev := range evs {
					requireBitIdentical(t, f, ev)
				}
			})
		})
	}
}

// pointerWalk is the reference the kernel is held to, independent of it:
// for each row, every tree's tree.PredictProbaRow summed in ensemble order,
// then each class multiplied by 1/trees.
func pointerWalk(t *testing.T, f *Classifier, ev *mat.Matrix) *mat.Matrix {
	t.Helper()
	out := mat.New(ev.Rows, f.NumClasses())
	inv := 1.0 / float64(len(f.trees))
	for i := 0; i < ev.Rows; i++ {
		dst := out.Row(i)
		for _, tr := range f.trees {
			p, err := tr.PredictProbaRow(ev.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range p {
				dst[c] += v
			}
		}
		for c := range dst {
			dst[c] *= inv
		}
	}
	return out
}

// requireBitIdentical fails unless PredictProba's scores for ev match the
// pointer walk's under math.Float64bits.
func requireBitIdentical(t *testing.T, f *Classifier, ev *mat.Matrix) {
	t.Helper()
	got, err := f.PredictProba(ev)
	if err != nil {
		t.Fatal(err)
	}
	walk := pointerWalk(t, f, ev)
	for i := range walk.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(walk.Data[i]) {
			t.Fatalf("rows=%d: element %d: flat %v vs pointer walk %v", ev.Rows, i, got.Data[i], walk.Data[i])
		}
	}
}

// hostileLeafPayload hand-writes a forest payload of 36 4-class trees over
// 2 features, one 32-tree vector group and four scalar lanes, whose leaves
// hold what no fit produces — −0, NaN, ±Inf, negative values and all-zero
// distributions — beside one-hot and multi-entry ones, three leaf sets in
// turn. Each tree is a full depth-2 split on both features.
func hostileLeafPayload(t *testing.T) []byte {
	const hostileTrees = 36
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
	w.Int(hostileTrees)
	w.Int(0)     // MaxDepth
	w.Int(0)     // MaxFeatures
	w.Int(0)     // MinSamplesLeaf
	w.Bool(true) // Bootstrap
	w.Int(1)     // retired Workers slot, read and discarded
	w.I64(0)     // Seed
	w.Int(4)     // classes
	w.Int(2)     // features
	w.Int(hostileTrees)
	for ti := range hostileTrees {
		ls := leaves[ti%len(leaves)]
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
// bit-identical to the pointer walk where it is not one-hot: multi-entry
// leaves of a fitted MinSamplesLeaf forest, and a decoded payload whose
// leaves hold −0, NaN, ±Inf, negative values and all-zero distributions,
// each 36 trees on both kernel paths.
func TestEquivalenceFlatForestSparseLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t.Run("min-samples-leaf", func(t *testing.T) {
		x, y := randomProblem(rng, 240, 5, 4)
		f := New(Config{NumTrees: 36, MinSamplesLeaf: 8, Seed: 5, Bootstrap: true})
		if err := f.Fit(x, y, 4); err != nil {
			t.Fatal(err)
		}
		if len(f.Flat().Layout().Entries) == 0 {
			t.Fatal("MinSamplesLeaf 8 compiled no multi-entry leaf")
		}
		evs := []*mat.Matrix{hostileRows(rng, 1, 5), hostileRows(rng, 37, 5)}
		onEachPath(t, func(t *testing.T) {
			for _, ev := range evs {
				requireBitIdentical(t, f, ev)
			}
		})
	})
	t.Run("hostile-payload", func(t *testing.T) {
		f, err := Decode(bytes.NewReader(hostileLeafPayload(t)))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Flat().Layout().Entries) == 0 {
			t.Fatal("hostile payload compiled no multi-entry leaf")
		}
		leaves := 0
		for _, ft := range f.Flat().Layout().Feat {
			if ft < 0 {
				leaves++
			}
		}
		if leaves != 4*36 {
			t.Fatalf("%d of %d leaves compiled as leaves", leaves, 4*36)
		}
		evs := []*mat.Matrix{hostileRows(rng, 1, 2), hostileRows(rng, 37, 2), hostileRows(rng, 64, 2)}
		onEachPath(t, func(t *testing.T) {
			for _, ev := range evs {
				requireBitIdentical(t, f, ev)
			}
		})
	})
}

// BenchmarkPredictProbaBatch times the flat kernel on the shapes a fleet
// tick hands it: rows of the 28 covariance features, 26 classes, forests of
// 50 trees (Table V's smallest grid point) and 100 (the benchmark's
// model). rows=2 is a sparse tick's two dirty jobs, rows=45 a steady-http
// tick and rows=256 a full tick. Each rung runs once per kernel path, so
// one run prints the scalar and the AVX-512 walk side by side; a path the
// host cannot run is skipped. Every rung scores rows of one seeded batch.
func BenchmarkPredictProbaBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomProblem(rng, 512, 28, 26)
	full, _ := randomProblem(rng, 256, 28, 26)
	for _, trees := range []int{50, 100} {
		f := New(Config{NumTrees: trees, Bootstrap: true, Seed: 1})
		if err := f.Fit(x, y, 26); err != nil {
			b.Fatal(err)
		}
		for _, rows := range []int{2, 45, 256} {
			batch := &mat.Matrix{Rows: rows, Cols: full.Cols, Data: full.Data[:rows*full.Cols]}
			for _, path := range []string{tree.ScalarPath, tree.AVX512Path} {
				b.Run(fmt.Sprintf("trees=%d/rows=%d/path=%s", trees, rows, path), func(b *testing.B) {
					prev, ok := tree.SetKernelPath(path)
					if !ok {
						b.Skipf("this CPU cannot run the %s walk", path)
					}
					defer tree.SetKernelPath(prev)
					b.ReportAllocs()
					for b.Loop() {
						if _, err := f.PredictProba(batch); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
				})
			}
		}
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
	fl := f.Flat().Layout()
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
	ufl := unpruned.Flat().Layout()
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
