package forest

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestScoreBlockZeroAlloc pins the forest's block scorer — the shared
// //wcc:hotpath kernel (tree.Flat.ScoreBlock) plus the averaging — to zero
// allocations when scoring into a caller-provided output matrix. The
// benchmark only bounds throughput within a tolerance; this gate fails
// loudly on an accidental per-row allocation instead of hiding it inside
// the regression budget.
func TestScoreBlockZeroAlloc(t *testing.T) {
	const classes, d, rows = 4, 6, 32
	rng := rand.New(rand.NewSource(7))
	x, y := randomProblem(rng, 200, d, classes)
	f := New(Config{NumTrees: 10, MaxDepth: 5, Seed: 3, Bootstrap: true})
	if err := f.Fit(x, y, classes); err != nil {
		t.Fatal(err)
	}
	if f.flat == nil {
		t.Fatal("Fit left no compiled flat form")
	}
	ev := hostileRows(rng, rows, d)
	out := mat.New(rows, classes)

	allocs := testing.AllocsPerRun(100, func() {
		f.scoreBlock(ev, out, 0, rows)
	})
	if allocs != 0 {
		t.Fatalf("forest scoreBlock allocates %.1f times per call, want 0", allocs)
	}
}
