package forest

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestScoreBlockZeroAlloc pins the //wcc:hotpath contract on the flat
// forest batch kernel: scoring a block into a caller-provided output
// matrix allocates nothing. The benchmark only bounds throughput within a
// tolerance; this gate guards the mechanism behind the PR 6 win
// directly, so an accidental per-row allocation fails loudly instead of
// hiding inside the regression budget.
func TestScoreBlockZeroAlloc(t *testing.T) {
	const classes, d, rows = 4, 6, 32
	rng := rand.New(rand.NewSource(7))
	x, y := randomProblem(rng, 200, d, classes)
	f := New(Config{NumTrees: 10, MaxDepth: 5, Seed: 3, Bootstrap: true, Workers: 1})
	if err := f.Fit(x, y, classes); err != nil {
		t.Fatal(err)
	}
	if f.flat == nil {
		t.Fatal("Fit left no compiled flat form")
	}
	ev := hostileRows(rng, rows, d)
	out := mat.New(rows, classes)

	allocs := testing.AllocsPerRun(100, func() {
		f.flat.scoreBlock(ev, out, 0, rows)
	})
	if allocs != 0 {
		t.Fatalf("flatForest.scoreBlock allocates %.1f times per call, want 0", allocs)
	}
}
