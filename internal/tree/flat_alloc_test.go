package tree

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestScoreBlockZeroAlloc pins the //wcc:hotpath contract on the shared
// flat kernel and on the ensembles' block scorer around it: scoring a
// block into a caller-provided output matrix allocates nothing, kernel
// alone or with its finishing step, on either kernel path, for the
// forest's mean over multi-entry leaves and the booster's softmax over
// one-entry leaves alike, at a sparse tick's block heights (1–3 rows) and
// a full one's (32); and a whole predict call of one row block, which runs
// the block on the caller with no closure, allocates nothing either.
func TestScoreBlockZeroAlloc(t *testing.T) {
	ens := ensembles(t)
	ev := hostileRows(rand.New(rand.NewSource(7)), 32)
	out := mat.New(ev.Rows, flatClasses)
	onEachPath(t, func(t *testing.T) {
		for _, tc := range ens {
			e := &tc.e
			for _, rows := range []int{1, 2, 3, 32} {
				if allocs := testing.AllocsPerRun(100, func() { e.Flat().ScoreBlock(ev, out, 0, rows) }); allocs != 0 {
					t.Fatalf("%s: Flat.ScoreBlock allocates %.1f times per call on %d rows, want 0", tc.name, allocs, rows)
				}
				if allocs := testing.AllocsPerRun(100, func() { e.scoreBlock(ev, out, 0, rows) }); allocs != 0 {
					t.Fatalf("%s: Ensemble.scoreBlock allocates %.1f times per call on %d rows, want 0", tc.name, allocs, rows)
				}
				x := &mat.Matrix{Rows: rows, Cols: ev.Cols, Data: ev.Data[:rows*ev.Cols]}
				o := &mat.Matrix{Rows: rows, Cols: out.Cols, Data: out.Data[:rows*out.Cols]}
				if allocs := testing.AllocsPerRun(100, func() { _ = e.PredictProbaBatchInto(x, o) }); allocs != 0 {
					t.Fatalf("%s: a one-block PredictProbaBatchInto allocates %.1f times per call on %d rows, want 0", tc.name, allocs, rows)
				}
			}
		}
	})
}
