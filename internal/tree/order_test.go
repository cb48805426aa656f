package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/mat"
)

// refFit grows a tree the way this package did before it ranked each
// matrix once: every candidate feature of every node re-sorted with
// sort.Slice through x.At, the Gini of every boundary recounted over all
// classes, and each child's rows appended to a fresh slice. The split
// search's equivalence tests hold FitIndices to it node for node.
func refFit(cfg Config, x *mat.Matrix, y, idx []int, numClasses int) *Classifier {
	t := New(cfg)
	t.numClasses = numClasses
	t.numFeats = x.Cols
	t.importance = make([]float64, x.Cols)
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	own := append([]int(nil), idx...)
	refGrow(t, x, y, own, 0, rng, float64(len(idx)))
	return t
}

func refGrow(t *Classifier, x *mat.Matrix, y []int, idx []int, depth int, rng *rand.Rand, rootN float64) int {
	counts := make([]float64, t.numClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	n := float64(len(idx))
	gini := giniImpurity(counts, n)
	id := len(t.nodes)
	t.nodes = append(t.nodes, node{})
	if gini == 0 || len(idx) < t.cfg.MinSamplesSplit ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		t.makeLeaf(id, counts, n)
		return id
	}
	feat, thresh, gain, ok := refBestSplit(t, x, y, idx, counts, gini, rng)
	if !ok {
		t.makeLeaf(id, counts, n)
		return id
	}
	var left, right []int
	for _, i := range idx {
		if x.At(i, feat) <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinSamplesLeaf || len(right) < t.cfg.MinSamplesLeaf {
		t.makeLeaf(id, counts, n)
		return id
	}
	t.importance[feat] += gain * n / rootN
	l := refGrow(t, x, y, left, depth+1, rng, rootN)
	r := refGrow(t, x, y, right, depth+1, rng, rootN)
	t.nodes[id] = node{feature: feat, threshold: thresh, left: l, right: r}
	return id
}

func refBestSplit(t *Classifier, x *mat.Matrix, y []int, idx []int, counts []float64, parentGini float64, rng *rand.Rand) (feat int, thresh, gain float64, ok bool) {
	feats := t.candidateFeatures(rng)
	n := float64(len(idx))
	sorted := make([]int, len(idx))
	leftCounts := make([]float64, t.numClasses)
	bestGain := -1.0
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x.At(sorted[a], f) < x.At(sorted[b], f) })
		clear(leftCounts)
		var nl float64
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			leftCounts[y[i]]++
			nl++
			v, next := x.At(i, f), x.At(sorted[k+1], f)
			if v == next {
				continue
			}
			if int(nl) < t.cfg.MinSamplesLeaf || len(sorted)-int(nl) < t.cfg.MinSamplesLeaf {
				continue
			}
			nr := n - nl
			var sl, sr float64
			for c, lc := range leftCounts {
				rc := counts[c] - lc
				sl += lc * lc
				sr += rc * rc
			}
			g := parentGini - (nl*(1-sl/(nl*nl))+nr*(1-sr/(nr*nr)))/n
			if g > bestGain {
				bestGain = g
				feat = f
				thresh = (v + next) / 2
				ok = true
			}
		}
	}
	return feat, thresh, bestGain, ok
}

// sameTree reports the first difference between two fitted trees: node
// shape, split feature, threshold bits, leaf distribution bits, and the
// unnormalised importance bits.
func sameTree(a, b *Classifier) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("%d nodes vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		p, q := &a.nodes[i], &b.nodes[i]
		if p.leaf != q.leaf || p.feature != q.feature || p.left != q.left || p.right != q.right ||
			math.Float64bits(p.threshold) != math.Float64bits(q.threshold) {
			return fmt.Errorf("node %d: %+v vs %+v", i, *p, *q)
		}
		if len(p.probs) != len(q.probs) {
			return fmt.Errorf("node %d: %d probs vs %d", i, len(p.probs), len(q.probs))
		}
		for c := range p.probs {
			if math.Float64bits(p.probs[c]) != math.Float64bits(q.probs[c]) {
				return fmt.Errorf("node %d class %d: prob %v vs %v", i, c, p.probs[c], q.probs[c])
			}
		}
	}
	for f := range a.importance {
		if math.Float64bits(a.importance[f]) != math.Float64bits(b.importance[f]) {
			return fmt.Errorf("importance %d: %v vs %v", f, a.importance[f], b.importance[f])
		}
	}
	return nil
}

// tiedProblem builds n rows whose columns cycle through the shapes a split
// order can get wrong: integers from a small range (long runs of ties), a
// constant, −0 and +0 beside ±1, continuous noise, and the adjacent floats
// 1+2⁻⁵² and 1+2⁻⁵¹, whose midpoint rounds onto the upper one, so a child
// must be found by value, not by rank. Labels lean on the first and the
// adjacent-float columns, so trees grow past the root and split on both.
func tiedProblem(rng *rand.Rand, n, d, k int) (*mat.Matrix, []int) {
	negZero := math.Copysign(0, -1)
	x := mat.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			var v float64
			switch j % 5 {
			case 0:
				v = float64(rng.Intn(5))
			case 1:
				v = 2.5
			case 2:
				v = []float64{negZero, 0, 1, -1}[rng.Intn(4)]
			case 3:
				v = rng.NormFloat64()
			default:
				v = 1 + float64(1+rng.Intn(2))*0x1p-52
			}
			x.Set(i, j, v)
		}
		y[i] = (int(x.At(i, 0)) + upper(x, i) + rng.Intn(2)) % k
	}
	return x, y
}

// upper reports whether row i's first adjacent-float column holds 1+2⁻⁵¹.
func upper(x *mat.Matrix, i int) int {
	if x.Cols > 4 && x.At(i, 4) > 1+0x1p-52 {
		return 1
	}
	return 0
}

// TestEquivalenceSplitOrderMatchesSortSearch pins the rank-order split
// search to the per-node sort.Slice search it replaced, node for node, over
// heavy ties, constant and signed-zero columns, bootstrap duplicates,
// MinSamplesLeaf 1 and 5, MaxDepth 0 and 4, MaxFeatures √d and all, and
// node sizes on both sides of SortRanks' insertion-sort cut-over.
func TestEquivalenceSplitOrderMatchesSortSearch(t *testing.T) {
	for _, n := range []int{2, 30, insertionCutoff - 1, insertionCutoff, 300, 1223} {
		for _, leaf := range []int{1, 5} {
			for _, depth := range []int{0, 4} {
				for _, feats := range []int{0, 2} {
					for _, boot := range []bool{false, true} {
						seed := int64(n*1000 + leaf*100 + depth*10 + feats)
						if boot {
							seed = -seed
						}
						name := fmt.Sprintf("n=%d/leaf=%d/depth=%d/feats=%d/boot=%v", n, leaf, depth, feats, boot)
						rng := rand.New(rand.NewSource(seed))
						x, y := tiedProblem(rng, n, 6, 3)
						idx := make([]int, n)
						for i := range idx {
							idx[i] = i
							if boot {
								idx[i] = rng.Intn(n)
							}
						}
						cfg := Config{MaxDepth: depth, MinSamplesSplit: 2, MinSamplesLeaf: leaf, MaxFeatures: feats, Seed: seed}
						got := New(cfg)
						if err := got.FitIndices(x, y, idx, 3); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := sameTree(got, refFit(cfg, x, y, idx, 3)); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// TestEquivalenceSplitOrderThreeRadixPasses covers a fit above 65 536 rows,
// where a rank needs a third 8-bit digit.
func TestEquivalenceSplitOrderThreeRadixPasses(t *testing.T) {
	const n = 70_000
	rng := rand.New(rand.NewSource(65537))
	x, y := tiedProblem(rng, n, 4, 3)
	ord, err := NewOrder(x)
	if err != nil {
		t.Fatal(err)
	}
	if ord.passes != 3 {
		t.Fatalf("%d rows rank in %d passes, want 3", n, ord.passes)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	cfg := Config{MaxDepth: 3, MinSamplesSplit: 2, MinSamplesLeaf: 1, Seed: 3}
	got := New(cfg)
	if err := got.FitOrder(ord, y, idx, 3); err != nil {
		t.Fatal(err)
	}
	if err := sameTree(got, refFit(cfg, x, y, idx, 3)); err != nil {
		t.Error(err)
	}
}

// TestSortRanksAscending checks SortRanks against slices.Sort on random
// subsets with repetition, on both sides of the insertion-sort cut-over
// and at one, two and three radix passes.
func TestSortRanksAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 200, 5000, 70_000} {
		x := mat.New(n, 2)
		for i := range x.Data {
			x.Data[i] = float64(rng.Intn(n/2 + 1))
		}
		ord, err := NewOrder(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 1000, n} {
			if m > n {
				continue
			}
			rows := make([]int, m)
			for i := range rows {
				rows[i] = rng.Intn(n)
			}
			want := make([]uint32, m)
			for j, i := range rows {
				want[j] = ord.rank[n+i]
			}
			slices.Sort(want)
			got := ord.SortRanks(1, rows, make([]uint32, m), make([]uint32, m))
			if !slices.Equal(got, want) {
				t.Errorf("n=%d m=%d: SortRanks differs from slices.Sort", n, m)
			}
			vals := ord.Values(1)
			for k := 1; k < m; k++ {
				if vals[got[k-1]] > vals[got[k]] {
					t.Fatalf("n=%d m=%d: values descend at %d", n, m, k)
				}
			}
		}
	}
}

// TestNewOrderTiesByRow pins the declared tie order: ascending value, and
// among equal values (−0 and +0 included) ascending row.
func TestNewOrderTiesByRow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x, _ := mat.FromRows([][]float64{{1}, {0}, {negZero}, {-1}, {0}, {1}})
	ord, err := NewOrder(x)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ord.RowsByRank(0), []uint32{3, 1, 2, 4, 0, 5}; !slices.Equal(got, want) {
		t.Errorf("rows by rank %v, want %v", got, want)
	}
}

// TestFitRefusesNonFinite: NaN, +Inf and −Inf in a training feature are
// refused with the row and column named, whether or not the row is in the
// fitted subset.
func TestFitRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rng := rand.New(rand.NewSource(40))
		x := mat.New(40, 3)
		y := make([]int, 40)
		for i := range y {
			y[i] = i % 2
			for j := 0; j < 3; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		x.Set(17, 2, bad)
		err := New(DefaultConfig()).FitIndices(x, y, []int{0, 1, 2, 3}, 2)
		if err == nil || !strings.Contains(err.Error(), "row 17, column 2") {
			t.Errorf("%v: FitIndices error %v, want one naming row 17, column 2", bad, err)
		}
	}
}
