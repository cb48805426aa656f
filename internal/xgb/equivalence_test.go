package xgb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tree"
)

// randomProblem builds an n-row, d-feature training set with k random
// labels, forcing real splits without structure that could hide a
// traversal bug behind constant leaves.
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

// hostileRows mixes ordinary values with NaN, ±Inf, signed zeros, and
// extreme magnitudes so both walks face every comparison edge.
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
// c's trees splits that feature at, so both walks meet v == thr, which
// `<=` sends left.
func snapToThresholds(rng *rand.Rand, x *mat.Matrix, c *Classifier) {
	thresholds := make([][]float64, x.Cols)
	for _, round := range c.trees {
		for _, tr := range round {
			for _, nd := range tr.nodes {
				if !nd.leaf {
					thresholds[nd.feature] = append(thresholds[nd.feature], nd.threshold)
				}
			}
		}
	}
	for i := range x.Data {
		if at := thresholds[i%x.Cols]; len(at) > 0 && rng.Intn(4) == 0 {
			x.Data[i] = at[rng.Intn(len(at))]
		}
	}
}

// pointerOnly clones a fitted ensemble without its flat form — the
// hand-populated value every predict method must refuse.
func pointerOnly(c *Classifier) *Classifier {
	return &Classifier{cfg: c.cfg, trees: c.trees}
}

// pointerWalk is the reference the kernel is held to, independent of it:
// for each row, lr·predictRow of every tree added to its class's score in
// (round, class) order, then the scores softmaxed.
func pointerWalk(c *Classifier, ev *mat.Matrix) *mat.Matrix {
	out := mat.New(ev.Rows, c.NumClasses())
	for i := 0; i < ev.Rows; i++ {
		dst := out.Row(i)
		for _, round := range c.trees {
			for k, tr := range round {
				dst[k] += c.cfg.LearningRate * tr.predictRow(ev.Row(i))
			}
		}
		tree.SoftmaxInto(dst, dst)
	}
	return out
}

// onEachPath runs fn as one subtest per kernel path with tree.ScoreBlock
// forced onto it. A path the CPU cannot run is skipped, and the skip says
// why.
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

// TestEquivalenceFlatXGB pins the flat node-array kernel bit-identical to
// the per-tree pointer walk (pointerWalk) on both kernel paths, across
// ensemble shapes, including empty and single-row hostile batches. An
// ensemble holds one tree per round and class: 40 trees for multiclass,
// 84 for stumps-manyclass, so both cross the 32-tree vector groups.
func TestEquivalenceFlatXGB(t *testing.T) {
	cases := []struct {
		name                      string
		rounds, depth, classes, d int
	}{
		{"shallow-binary", 4, 2, 2, 3},
		{"deeper-binary", 10, 5, 2, 5},
		{"multiclass", 8, 4, 5, 7},
		{"stumps-manyclass", 12, 1, 7, 4},
	}
	rng := rand.New(rand.NewSource(99))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := randomProblem(rng, 220, tc.d, tc.classes)
			c := New(Config{NumRounds: tc.rounds, MaxDepth: tc.depth, Seed: 5})
			if err := c.Fit(x, y, tc.classes, nil, nil); err != nil {
				t.Fatal(err)
			}
			if c.Flat() == nil {
				t.Fatal("Fit left no compiled flat form")
			}
			p := pointerOnly(c)
			if _, err := p.PredictProba(x); err == nil {
				t.Fatal("PredictProba accepted a classifier with no compiled flat form")
			}
			if _, err := p.Predict(x); err == nil {
				t.Fatal("Predict accepted a classifier with no compiled flat form")
			}
			evs := []*mat.Matrix{hostileRows(rng, 0, tc.d), hostileRows(rng, 1, tc.d), hostileRows(rng, 37, tc.d)}
			for _, ev := range evs {
				snapToThresholds(rng, ev, c)
			}
			onEachPath(t, func(t *testing.T) {
				for _, ev := range evs {
					got, err := c.PredictProba(ev)
					if err != nil {
						t.Fatal(err)
					}
					walk := pointerWalk(c, ev)
					for i := range walk.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(walk.Data[i]) {
							t.Fatalf("rows=%d: element %d: flat %v vs pointer walk %v", ev.Rows, i, got.Data[i], walk.Data[i])
						}
					}
				}
			})
		})
	}
}

// BenchmarkPredictProbaBatch times the flat kernel on the shapes a fleet
// tick hands it: rows of the 28 covariance features, 26 classes, the §IV-B
// booster (40 rounds, depth 6). rows=256 is a full tick and rows=2 a sparse
// tick's two dirty jobs. Each rung runs once per kernel path, so one run
// prints the scalar and the AVX-512 walk side by side; a path the host
// cannot run is skipped. Both rungs score rows of one seeded batch.
func BenchmarkPredictProbaBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomProblem(rng, 512, 28, 26)
	c := New(Config{NumRounds: 40, LearningRate: 0.3, MaxDepth: 6, Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: 1})
	if err := c.Fit(x, y, 26, nil, nil); err != nil {
		b.Fatal(err)
	}
	full, _ := randomProblem(rng, 256, 28, 26)
	for _, rows := range []int{2, 256} {
		batch := &mat.Matrix{Rows: rows, Cols: full.Cols, Data: full.Data[:rows*full.Cols]}
		for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
			b.Run(fmt.Sprintf("rows=%d/path=%s", rows, path), func(b *testing.B) {
				prev, ok := mat.SetKernelPath(path)
				if !ok {
					b.Skipf("this CPU cannot run the %s walk", path)
				}
				defer mat.SetKernelPath(prev)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := c.PredictProba(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// TestFlatXGBCompiledShape checks the relayout invariants the kernel
// relies on: one root per (round, class) tree in boosting order, adjacent
// sibling children, and inline one-entry leaves for their tree's class.
func TestFlatXGBCompiledShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x, y := randomProblem(rng, 150, 4, 3)
	c := New(Config{NumRounds: 6, MaxDepth: 4, Seed: 11})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	fl := c.Flat().Layout()
	if len(fl.Roots) != 6*3 {
		t.Fatalf("%d roots for 6 rounds × 3 classes", len(fl.Roots))
	}
	if len(fl.Feat) != len(fl.Thr) || len(fl.Feat) != len(fl.Kids) {
		t.Fatalf("ragged arrays: %d/%d/%d", len(fl.Feat), len(fl.Thr), len(fl.Kids))
	}
	if len(fl.Entries) != 0 {
		t.Fatalf("%d multi-entry leaf entries, want inline leaves only", len(fl.Entries))
	}
	for ti, root := range fl.Roots {
		end := len(fl.Feat)
		if ti+1 < len(fl.Roots) {
			end = int(fl.Roots[ti+1])
		}
		for id := int(root); id < end; id++ {
			switch ft := fl.Feat[id]; {
			case ft >= 0:
				if k := int(fl.Kids[id]); k <= id || k+1 >= end {
					t.Fatalf("node %d has out-of-range children at %d", id, k)
				}
			case ft != -1 || int(fl.Kids[id]) != ti%3:
				t.Fatalf("leaf %d of tree %d is %d entries for class %d, want one for class %d", id, ti, -ft, fl.Kids[id], ti%3)
			}
		}
	}
}
