package xgb

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestScoreBlockZeroAlloc pins the booster's block scorer to zero
// allocations: the shared //wcc:hotpath kernel (tree.Flat.ScoreBlock) and
// the in-place softmax (softmaxInto with dst aliasing scores).
func TestScoreBlockZeroAlloc(t *testing.T) {
	const classes, d, rows = 5, 7, 32
	rng := rand.New(rand.NewSource(11))
	x, y := randomProblem(rng, 200, d, classes)
	c := New(Config{NumRounds: 8, MaxDepth: 4, Seed: 5})
	if err := c.Fit(x, y, classes, nil, nil); err != nil {
		t.Fatal(err)
	}
	if c.flat == nil {
		t.Fatal("Fit left no compiled flat form")
	}
	ev := hostileRows(rng, rows, d)
	out := mat.New(rows, classes)

	allocs := testing.AllocsPerRun(100, func() {
		c.scoreBlock(ev, out, 0, rows)
	})
	if allocs != 0 {
		t.Fatalf("xgb scoreBlock allocates %.1f times per call, want 0", allocs)
	}
}
