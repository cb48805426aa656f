package xgb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/tree"
)

// refGrow grows a regression tree the way this package did before it
// ranked each matrix once — every feature of every node re-sorted, each
// child's rows appended to a fresh slice — except that the sort is
// sort.SliceStable over rows in ascending order: ascending value, ties by
// ascending row, the tie order tree.Order declares. The split search's
// equivalence test holds grower.buildTree to it node for node.
func refGrow(c *Classifier, t *regTree, x *mat.Matrix, g, h []float64, rows []int, depth int) int {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += g[i]
		hSum += h[i]
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, regNode{})
	if depth >= maxDepth || len(rows) < 2 {
		t.nodes[id] = regNode{leaf: true, weight: c.leafWeight(gSum, hSum)}
		return id
	}
	parentScore := c.splitScore(gSum, hSum)
	bestGain := 0.0
	bestFeat := -1
	var bestThresh float64
	sorted := make([]int, len(rows))
	for f := 0; f < x.Cols; f++ {
		copy(sorted, rows)
		sort.SliceStable(sorted, func(a, b int) bool { return x.At(sorted[a], f) < x.At(sorted[b], f) })
		var gl, hl float64
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			gl += g[i]
			hl += h[i]
			v, next := x.At(i, f), x.At(sorted[k+1], f)
			if v == next {
				continue
			}
			hr := hSum - hl
			if hl < minChildWeight || hr < minChildWeight {
				continue
			}
			gain := c.splitScore(gl, hl) + c.splitScore(gSum-gl, hr) - parentScore - c.cfg.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		t.nodes[id] = regNode{leaf: true, weight: c.leafWeight(gSum, hSum)}
		return id
	}
	c.gainImp[bestFeat] += bestGain
	c.weightImp[bestFeat]++
	var left, right []int
	for _, i := range rows {
		if x.At(i, bestFeat) <= bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	l := refGrow(c, t, x, g, h, left, depth+1)
	r := refGrow(c, t, x, g, h, right, depth+1)
	t.nodes[id] = regNode{feature: bestFeat, threshold: bestThresh, left: l, right: r}
	return id
}

// sameRegTree reports the first difference between two regression trees,
// comparing thresholds and leaf weights by their bits.
func sameRegTree(a, b *regTree) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("%d nodes vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		p, q := a.nodes[i], b.nodes[i]
		if p.leaf != q.leaf || p.feature != q.feature || p.left != q.left || p.right != q.right ||
			math.Float64bits(p.threshold) != math.Float64bits(q.threshold) ||
			math.Float64bits(p.weight) != math.Float64bits(q.weight) {
			return fmt.Errorf("node %d: %+v vs %+v", i, p, q)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
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

// TestEquivalenceSplitOrderMatchesStableSort pins the booster's rank-order
// search to the per-node sort it replaced, with ties in ascending row
// order, node for node and importance bit for bit. Gradients are a real
// round's (softmax of random scores), so gl and hl are sums a tie order
// could move.
func TestEquivalenceSplitOrderMatchesStableSort(t *testing.T) {
	cases := []struct {
		n   int
		cfg Config
	}{
		{30, Config{Lambda: 1}},
		{300, Config{Lambda: 2, Alpha: 0.3, Gamma: 0.05}},
		{1223, Config{Lambda: 1}},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		x, y := tiedProblem(rng, tc.n, 8, 3)
		ord, err := tree.NewOrder(x)
		if err != nil {
			t.Fatal(err)
		}
		got, want := New(tc.cfg), New(tc.cfg)
		for _, c := range []*Classifier{got, want} {
			c.gainImp = make([]float64, x.Cols)
			c.weightImp = make([]float64, x.Cols)
		}
		b := newGrower(got, ord)
		g, h := make([]float64, tc.n), make([]float64, tc.n)
		probs := make([]float64, 3)
		rows := make([]int, tc.n)
		for round := 0; round < 3; round++ {
			for i := range rows {
				rows[i] = i
			}
			for i := 0; i < tc.n; i++ {
				for k := range probs {
					probs[k] = rng.NormFloat64()
				}
				tree.SoftmaxInto(probs, probs)
				p := probs[0]
				target := 0.0
				if y[i] == 0 {
					target = 1
				}
				g[i] = p - target
				h[i] = math.Max(p*(1-p), 1e-16)
			}
			gotTree := b.buildTree(g, h)
			wantTree := &regTree{}
			refGrow(want, wantTree, x, g, h, rows, 0)
			if err := sameRegTree(gotTree, wantTree); err != nil {
				t.Errorf("case %d round %d: %v", ci, round, err)
			}
			if len(gotTree.nodes) < 3 {
				t.Errorf("case %d round %d: %d nodes, the problem should split", ci, round, len(gotTree.nodes))
			}
		}
		if !sameBits(got.gainImp, want.gainImp) || !sameBits(got.weightImp, want.weightImp) {
			t.Errorf("case %d: importances %v/%v, want %v/%v", ci, got.gainImp, got.weightImp, want.gainImp, want.weightImp)
		}
	}
}

// TestXGBFitRefusesNonFinite: NaN, +Inf and −Inf in a training feature are
// refused with the row and column named.
func TestXGBFitRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x, y := blobs(40, 3, 1.0, 5)
		x.Set(9, 1, bad)
		err := New(Config{NumRounds: 2}).Fit(x, y, 3, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "row 9, column 1") {
			t.Errorf("%v: Fit error %v, want one naming row 9, column 1", bad, err)
		}
	}
}

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

// BenchmarkFit times one §IV-B booster fit (40 rounds, depth 6) on the
// benchmark's 1 223×28 training shape.
func BenchmarkFit(b *testing.B) {
	x, y := fitProblem(1)
	b.ReportAllocs()
	for b.Loop() {
		c := New(Config{NumRounds: 40, Lambda: 1})
		if err := c.Fit(x, y, 26, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestXGBFitRefusesMismatchedEvalSet: an eval set with a label count other
// than its row count, or a width other than the training rows', is refused
// before the fit touches the booster, so a fitted booster predicts the same
// bits after the refused call.
func TestXGBFitRefusesMismatchedEvalSet(t *testing.T) {
	x, y := blobs(120, 3, 0.8, 5)
	xt, yt := blobs(30, 3, 0.8, 6)
	c := New(Config{NumRounds: 4})
	if err := c.Fit(x, y, 3, xt, yt); err != nil {
		t.Fatal(err)
	}
	want, err := c.PredictProba(xt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		evalX *mat.Matrix
		evalY []int
		err   string
	}{
		{"fewer labels", xt, yt[:29], "30 eval rows vs 29 eval labels"},
		{"more labels", xt, append(yt[:30:30], 0), "30 eval rows vs 31 eval labels"},
		{"narrower rows", mat.New(30, 1), yt, "eval rows have 1 features, training rows 2"},
		{"wider rows", mat.New(30, 3), yt, "eval rows have 3 features, training rows 2"},
	} {
		if err := c.Fit(x, y, 3, tc.evalX, tc.evalY); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: Fit error %v, want %q", tc.name, err, tc.err)
		}
		got, err := c.PredictProba(xt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Data, want.Data) || len(c.EvalAccuracy) != 4 || len(c.TrainLoss) != 4 {
			t.Fatalf("%s: a refused Fit changed the fitted booster", tc.name)
		}
	}
}
