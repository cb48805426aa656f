package xgb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
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

// pointerOnly clones a fitted ensemble without its flat form — the
// hand-populated value PredictProbaBatch must refuse.
func pointerOnly(c *Classifier) *Classifier {
	return &Classifier{cfg: c.cfg, trees: c.trees, numClasses: c.numClasses, numFeats: c.numFeats}
}

// TestEquivalenceFlatXGB pins the flat node-array kernel bit-identical to
// the serial pointer-tree PredictProba path across ensemble shapes,
// including empty and single-row hostile batches.
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
			c := New(Config{NumRounds: tc.rounds, MaxDepth: tc.depth, Workers: 3, Seed: 5})
			if err := c.Fit(x, y, tc.classes, nil, nil); err != nil {
				t.Fatal(err)
			}
			if c.flat == nil {
				t.Fatal("Fit left no compiled flat form")
			}
			if _, err := pointerOnly(c).PredictProbaBatch(x); err == nil {
				t.Fatal("PredictProbaBatch accepted a classifier with no compiled flat form")
			}
			for _, rows := range []int{0, 1, 37} {
				ev := hostileRows(rng, rows, tc.d)
				got, err := c.PredictProbaBatch(ev)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := c.PredictProba(ev)
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

// TestFlatXGBCompiledShape checks the relayout invariants the kernel
// relies on: one root per (round, class) tree in boosting order and
// adjacent sibling children.
func TestFlatXGBCompiledShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x, y := randomProblem(rng, 150, 4, 3)
	c := New(Config{NumRounds: 6, MaxDepth: 4, Seed: 11})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	fl := c.flat
	if len(fl.roots) != 6*3 {
		t.Fatalf("%d roots for 6 rounds × 3 classes", len(fl.roots))
	}
	if len(fl.feat) != len(fl.thr) || len(fl.feat) != len(fl.kids) {
		t.Fatalf("ragged arrays: %d/%d/%d", len(fl.feat), len(fl.thr), len(fl.kids))
	}
	for id, ft := range fl.feat {
		if ft < 0 {
			continue
		}
		if k := int(fl.kids[id]); k <= id || k+1 >= len(fl.feat) {
			t.Fatalf("node %d has out-of-range children at %d", id, k)
		}
	}
}
