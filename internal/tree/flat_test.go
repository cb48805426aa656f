package tree

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
)

const (
	flatClasses = 4
	flatFeats   = 5
	boostScale  = 0.3
)

// flatEnsembles fits ten pruned trees on random labels and compiles them
// the two ways the ensembles do (see compileFlats).
func flatEnsembles(t *testing.T) (trees []*Classifier, forest, boosted *Flat) {
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
	for i := 0; i < 10; i++ {
		tr := New(Config{MaxDepth: 5, MaxFeatures: 3, Seed: int64(i)})
		if err := tr.Fit(x, y, flatClasses); err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	forest, boosted = compileFlats(t, trees)
	if len(forest.entries) == 0 {
		t.Fatal("MaxDepth 5 compiled no multi-entry leaf")
	}
	return trees, forest, boosted
}

// compileFlats compiles trees as the forest does (scale 1, each leaf its
// class distribution, pruning leaves multi-entry ones) and as xgb does
// (scale 0.3, tree i a tree of one-entry leaves for class i mod 4 holding
// that class's probability).
func compileFlats(t *testing.T, trees []*Classifier) (forest, boosted *Flat) {
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

// requireSameBits fails unless got and want agree under math.Float64bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestEquivalenceFlatPointerWalk pins both compiled forms bit-identical to
// the pointer trees' own sums, in ensemble order: Σ p for the forest form
// and Σ 0.3·p[k] for the boosted form. Every row is scored in blocks of
// one height, 1 to 5 rows or all 37. The ensemble prefixes cover fewer
// trees than one four-tree lane group (1, 3), exactly one (4), and groups
// followed by single-lane trees (5, 10).
func TestEquivalenceFlatPointerWalk(t *testing.T) {
	all, _, _ := flatEnsembles(t)
	ev := hostileRows(rand.New(rand.NewSource(5)), 37)
	for _, n := range []int{1, 3, 4, 5, 10} {
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
	}
}

// TestEquivalenceFlatBlockSplits pins that how a batch splits into blocks
// — one per worker goroutine in the ensembles' batched predict — never
// moves a bit: the same rows scored as one block and as blocks of 1, 3 and
// 16 rows agree exactly.
func TestEquivalenceFlatBlockSplits(t *testing.T) {
	_, forest, boosted := flatEnsembles(t)
	ev := hostileRows(rand.New(rand.NewSource(6)), 61)
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
}

// TestFlatAddRefusesNonTrees pins the compile-time validation both
// decoders rely on: a child that does not point forward, a node with two
// parents (one split's children or two splits sharing a subtree), a node
// with none, and a leaf wider than the ensemble are refused.
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
