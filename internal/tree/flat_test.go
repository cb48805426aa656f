package tree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
)

const (
	flatClasses = 4
	flatFeats   = 5
	boostScale  = 0.3
)

// flatEnsembles fits 100 trees on random labels and compiles them the two
// ways the ensembles do (see compileFlats). Depth caps of 2, 5 and 8 and
// unpruned trees mix shallow and deep walks within each 32-tree group, so
// the vector walk's lanes reach their leaves at different levels; trees 7,
// 32 and 57 (MinSamplesSplit past the rows) and 19, 44 and 69 (one class
// only) are a lone leaf, multi-entry and one-entry.
func flatEnsembles(t testing.TB) (trees []*Classifier, forest, boosted *Flat) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	x := mat.New(200, flatFeats)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 3
	}
	for i := range y {
		y[i] = rng.Intn(flatClasses)
	}
	pure := make([]int, x.Rows)
	for i := 0; i < 100; i++ {
		cfg := Config{MaxDepth: []int{5, 2, 0, 8}[i%4], MaxFeatures: 3, Seed: int64(i)}
		labels := y
		switch {
		case i%25 == 7 && i < 75:
			cfg.MinSamplesSplit = x.Rows + 1
		case i%25 == 19 && i < 75:
			labels = pure
		}
		tr := New(cfg)
		if err := tr.Fit(x, labels, flatClasses); err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	forest, boosted = compileFlats(t, trees)
	if len(forest.entries) == 0 {
		t.Fatal("the pruned trees compiled no multi-entry leaf")
	}
	for _, i := range []int{7, 19, 32, 44, 57, 69} {
		if ft := forest.feat[forest.roots[i]]; ft >= 0 {
			t.Fatalf("tree %d's root splits on feature %d, want a lone leaf", i, ft)
		}
	}
	return trees, forest, boosted
}

// compileFlats compiles trees as the forest does (scale 1, each leaf its
// class distribution, pruning leaves multi-entry ones) and as xgb does
// (scale 0.3, tree i a tree of one-entry leaves for class i mod 4 holding
// that class's probability).
func compileFlats(t testing.TB, trees []*Classifier) (forest, boosted *Flat) {
	t.Helper()
	forest, boosted = NewFlat(flatClasses, 1), NewFlat(flatClasses, boostScale)
	for i, tr := range trees {
		nodes := tr.ExportNodes()
		if err := forest.Add(nodes, 0); err != nil {
			t.Fatal(err)
		}
		k := i % flatClasses
		for j := range nodes {
			if nodes[j].Leaf {
				nodes[j].Probs = nodes[j].Probs[k : k+1]
			}
		}
		if err := boosted.Add(nodes, k); err != nil {
			t.Fatal(err)
		}
	}
	return forest, boosted
}

// hostileRows mixes ordinary values with NaN, ±Inf, signed zeros and
// extreme magnitudes so the walk meets every comparison edge.
func hostileRows(rng *rand.Rand, rows int) *mat.Matrix {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 5e-324}
	x := mat.New(rows, flatFeats)
	for i := range x.Data {
		if rng.Intn(3) == 0 {
			x.Data[i] = specials[rng.Intn(len(specials))]
		} else {
			x.Data[i] = rng.NormFloat64() * 3
		}
	}
	return x
}

// snapToThresholds sets about one value in four of x to a threshold fl
// splits that feature at, so a walk meets v == thr, which `<=` sends left.
func snapToThresholds(rng *rand.Rand, x *mat.Matrix, fl *Flat) {
	thresholds := make([][]float64, x.Cols)
	for id, ft := range fl.feat {
		if ft >= 0 {
			thresholds[ft] = append(thresholds[ft], fl.thr[id])
		}
	}
	for i := range x.Data {
		if at := thresholds[i%x.Cols]; len(at) > 0 && rng.Intn(4) == 0 {
			x.Data[i] = at[rng.Intn(len(at))]
		}
	}
}

// requireSameBits fails unless got and want agree under math.Float64bits.
func requireSameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// onEachPath runs fn as one subtest per kernel path with ScoreBlock forced
// onto it. A path the CPU cannot run is skipped, and the skip says why.
func onEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
		t.Run(path, func(t *testing.T) {
			prev, ok := mat.SetKernelPath(path)
			if !ok {
				t.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s walk is not run", path)
			}
			defer mat.SetKernelPath(prev)
			fn(t)
		})
	}
}

// TestEquivalenceFlatPointerWalk pins both compiled forms bit-identical to
// the pointer trees' own sums, in ensemble order: Σ p for the forest form
// and Σ 0.3·p[k] for the boosted form, on both kernel paths. The rows mix
// hostile values with split thresholds, and every row is scored in blocks
// of one height, 1 to 5 rows or all 37. The ensemble
// prefixes cover fewer trees than one four-tree scalar group (1, 3),
// exactly one (4), groups followed by single-lane trees (5, 10), fewer
// than one 32-tree vector group (31), exactly one (32), one and a lone
// tree (33), two and a lone tree (65), and three and a four-tree group
// (100).
func TestEquivalenceFlatPointerWalk(t *testing.T) {
	all, forest, _ := flatEnsembles(t)
	rng := rand.New(rand.NewSource(5))
	ev := hostileRows(rng, 37)
	snapToThresholds(rng, ev, forest)
	for _, n := range []int{1, 3, 4, 5, 10, 31, 32, 33, 65, 100} {
		trees := all[:n]
		forest, boosted := compileFlats(t, trees)
		wantForest, wantBoosted := mat.New(ev.Rows, flatClasses), mat.New(ev.Rows, flatClasses)
		for i := 0; i < ev.Rows; i++ {
			for ti, tr := range trees {
				p, err := tr.PredictProbaRow(ev.Row(i))
				if err != nil {
					t.Fatal(err)
				}
				for c, v := range p {
					wantForest.Row(i)[c] += v
				}
				k := ti % flatClasses
				wantBoosted.Row(i)[k] += boostScale * p[k]
			}
		}
		t.Run(fmt.Sprintf("trees=%d", n), func(t *testing.T) {
			onEachPath(t, func(t *testing.T) {
				for _, tc := range []struct {
					name string
					fl   *Flat
					want *mat.Matrix
				}{{"forest", forest, wantForest}, {"boosted", boosted, wantBoosted}} {
					for _, height := range []int{1, 2, 3, 4, 5, 37} {
						got := mat.New(ev.Rows, flatClasses)
						for lo := 0; lo < ev.Rows; lo += height {
							tc.fl.ScoreBlock(ev, got, lo, min(lo+height, ev.Rows))
						}
						requireSameBits(t, fmt.Sprintf("%s, %d trees, blocks of %d rows", tc.name, n, height), got.Data, tc.want.Data)
					}
				}
			})
		})
	}
}

// TestEquivalenceFlatBlockSplits pins that how a batch splits into blocks
// — one per worker goroutine in the ensembles' batched predict — never
// moves a bit: the same rows scored as one block and as blocks of 1, 3 and
// 16 rows agree exactly.
func TestEquivalenceFlatBlockSplits(t *testing.T) {
	_, forest, boosted := flatEnsembles(t)
	ev := hostileRows(rand.New(rand.NewSource(6)), 61)
	onEachPath(t, func(t *testing.T) {
		for _, fl := range []*Flat{forest, boosted} {
			whole := mat.New(ev.Rows, flatClasses)
			fl.ScoreBlock(ev, whole, 0, ev.Rows)
			for _, size := range []int{1, 3, 16} {
				got := mat.New(ev.Rows, flatClasses)
				for lo := 0; lo < ev.Rows; lo += size {
					fl.ScoreBlock(ev, got, lo, min(lo+size, ev.Rows))
				}
				requireSameBits(t, fmt.Sprintf("blocks of %d", size), got.Data, whole.Data)
			}
		}
	})
}

// TestFlatAddRefusesNonTrees pins the compile-time validation both
// decoders rely on: a child that does not point forward, a node with two
// parents (one split's children or two splits sharing a subtree), a node
// with none, a leaf wider than the ensemble and a negative split feature
// are refused.
func TestFlatAddRefusesNonTrees(t *testing.T) {
	split := func(l, r int) ExportNode { return ExportNode{Left: l, Right: r} }
	leaf := ExportNode{Leaf: true, Probs: []float64{1, 0}}
	for _, tc := range []struct {
		name  string
		nodes []ExportNode
		class int
		want  string
	}{
		{"empty", nil, 0, "no nodes"},
		{"backward child", []ExportNode{split(1, 2), split(0, 2), leaf}, 0, "out-of-range"},
		{"child past the end", []ExportNode{split(1, 3), leaf, leaf}, 0, "out-of-range"},
		{"one split's children", []ExportNode{split(1, 1), leaf}, 0, "two parents"},
		{"shared subtree", []ExportNode{split(1, 2), split(3, 4), split(3, 4), leaf, leaf}, 0, "two parents"},
		{"orphan", []ExportNode{split(1, 2), leaf, leaf, leaf}, 0, "no parent"},
		{"leaf past the classes", []ExportNode{leaf}, 1, "adds classes"},
		{"negative feature", []ExportNode{{Feature: -1, Left: 1, Right: 2}, leaf, leaf}, 0, "splits on feature"},
	} {
		err := NewFlat(2, 1).Add(tc.nodes, tc.class)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if err := NewFlat(2, 1).Add([]ExportNode{split(1, 2), leaf, leaf}, 0); err != nil {
		t.Fatalf("refused a tree: %v", err)
	}
}

// TestFlatVectorWalkNeedsEveryFeature pins the guard in front of walk32,
// which has no bounds checks: Add refuses a negative split feature (see
// TestFlatAddRefusesNonTrees), and an x too narrow for the ensemble's
// largest split feature is walked by the scalar lanes even with the vector
// walk forced, so the read past the row is Go's index panic. Without the
// guard, walk32 would read row 0's feature 3 from row 1 and return.
func TestFlatVectorWalkNeedsEveryFeature(t *testing.T) {
	fl := NewFlat(2, 1)
	leaf := ExportNode{Leaf: true, Probs: []float64{1, 0}}
	for j := 0; j < 32; j++ {
		if err := fl.Add([]ExportNode{{Feature: j % 4, Threshold: 0.5, Left: 1, Right: 2}, leaf, leaf}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if fl.maxFeat != 3 {
		t.Fatalf("maxFeat = %d over splits on features 0-3", fl.maxFeat)
	}
	onEachPath(t, func(t *testing.T) {
		wide := mat.New(2, 4)
		fl.ScoreBlock(wide, mat.New(2, 2), 0, 2)
		defer func() {
			err, ok := recover().(runtime.Error)
			if !ok || !strings.Contains(err.Error(), "index out of range") {
				t.Fatalf("scoring 3 columns against a split on feature 3: recovered %v, want an index panic", err)
			}
		}()
		fl.ScoreBlock(mat.New(2, 3), mat.New(2, 2), 0, 1)
	})
}
