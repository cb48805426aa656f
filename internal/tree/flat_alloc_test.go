package tree

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestScoreBlockZeroAlloc pins the //wcc:hotpath contract on the shared
// flat kernel: scoring a block into a caller-provided output matrix
// allocates nothing, for the forest's multi-entry leaves and the boosted
// form's one-entry leaves alike, at a sparse tick's block heights (1–3
// rows) and a full one's (32).
func TestScoreBlockZeroAlloc(t *testing.T) {
	_, forest, boosted := flatEnsembles(t)
	ev := hostileRows(rand.New(rand.NewSource(7)), 32)
	out := mat.New(ev.Rows, flatClasses)
	for _, fl := range []*Flat{forest, boosted} {
		for _, rows := range []int{1, 2, 3, 32} {
			allocs := testing.AllocsPerRun(100, func() {
				fl.ScoreBlock(ev, out, 0, rows)
			})
			if allocs != 0 {
				t.Fatalf("Flat.ScoreBlock allocates %.1f times per call on %d rows, want 0", allocs, rows)
			}
		}
	}
}
