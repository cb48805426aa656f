package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// namedEnsemble is one row of the predict contract's table.
type namedEnsemble struct {
	name string
	e    Ensemble
}

// ensembles wraps flatEnsembles' two compiled forms the way the ensembles
// finish them: the forest form, whose leaves are multi-entry and one-entry,
// averaged over its trees, and the boosted form, whose leaves are all one
// entry, softmaxed.
func ensembles(t testing.TB) []namedEnsemble {
	t.Helper()
	_, forest, boosted := flatEnsembles(t)
	return []namedEnsemble{
		{"mean", NewMean(forest, flatFeats)},
		{"softmax", NewSoftmax(boosted, flatFeats)},
	}
}

// TestEquivalenceEnsemblePredict is the predict contract of both tree
// ensembles, the forest's mean and the booster's softmax:
//   - PredictProbaBatchInto overwrites whatever out held — NaN garbage or
//     a previous, larger batch — with rows bit-identical to the whole batch
//     scored as one block, however the batch fans out over goroutines;
//     PredictProba returns the same bits and Predict their arg-max;
//   - every entry point refuses an input whose Data does not hold
//     Rows×Cols values, with spare capacity behind it or without, or whose
//     width is not the fitted one, and PredictProbaBatchInto a misshapen
//     output, before any block worker slices them;
//   - the zero Ensemble is unfitted: it has no classes and every entry
//     point refuses it.
func TestEquivalenceEnsemblePredict(t *testing.T) {
	ev := hostileRows(rand.New(rand.NewSource(8)), 200)
	for _, tc := range ensembles(t) {
		e := &tc.e
		nc := e.NumClasses()
		whole := mat.New(ev.Rows, nc)
		e.scoreBlock(ev, whole, 0, ev.Rows)
		t.Run(tc.name+"/overwrites", func(t *testing.T) {
			buf := make([]float64, ev.Rows*nc)
			for i := range buf {
				buf[i] = math.NaN()
			}
			for _, rows := range []int{ev.Rows, 97, 1, 0} {
				x := &mat.Matrix{Rows: rows, Cols: ev.Cols, Data: ev.Data[:rows*ev.Cols]}
				out := &mat.Matrix{Rows: rows, Cols: nc, Data: buf[:rows*nc]}
				want := whole.Data[:rows*nc]
				if err := e.PredictProbaBatchInto(x, out); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, fmt.Sprintf("PredictProbaBatchInto, %d rows", rows), out.Data, want)
				got, err := e.PredictProba(x)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, fmt.Sprintf("PredictProba, %d rows", rows), got.Data, want)
				labels, err := e.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range labels {
					if want := mat.ArgMax(whole.Row(i)); l != want {
						t.Fatalf("Predict, %d rows: row %d labelled %d, want %d", rows, i, l, want)
					}
				}
			}
		})
		t.Run(tc.name+"/refuses-misshapen", func(t *testing.T) {
			half := ev.Rows / 2 * ev.Cols
			for name, x := range map[string]*mat.Matrix{
				"spare capacity": {Rows: ev.Rows, Cols: ev.Cols, Data: ev.Data[:half]},
				"exact capacity": {Rows: ev.Rows, Cols: ev.Cols, Data: ev.Data[:half:half]},
				"too long":       {Rows: ev.Rows, Cols: ev.Cols, Data: append(append([]float64(nil), ev.Data...), 0)},
				"too wide":       mat.New(4, flatFeats+1),
				"too narrow":     mat.New(4, flatFeats-1),
			} {
				for method, predict := range map[string]func(*mat.Matrix) error{
					"PredictProba":          func(x *mat.Matrix) error { _, err := e.PredictProba(x); return err },
					"PredictProbaBatchInto": func(x *mat.Matrix) error { return e.PredictProbaBatchInto(x, mat.New(x.Rows, nc)) },
					"Predict":               func(x *mat.Matrix) error { _, err := e.Predict(x); return err },
				} {
					if err := predict(x); err == nil {
						t.Errorf("%s, %s: accepted a %dx%d input of %d values", method, name, x.Rows, x.Cols, len(x.Data))
					}
				}
			}
			buf := make([]float64, ev.Rows*nc)
			for _, out := range []*mat.Matrix{
				mat.New(ev.Rows, nc+1),
				mat.New(ev.Rows-1, nc),
				{Rows: ev.Rows, Cols: nc, Data: buf[:len(buf)-1]},
			} {
				if err := e.PredictProbaBatchInto(ev, out); err == nil {
					t.Errorf("accepted a %dx%d output of %d values", out.Rows, out.Cols, len(out.Data))
				}
			}
		})
	}
	t.Run("unfitted", func(t *testing.T) {
		var e Ensemble
		if e.NumClasses() != 0 || e.NumFeatures() != 0 || e.Flat() != nil {
			t.Fatalf("zero Ensemble: %d classes, %d features, flat %v", e.NumClasses(), e.NumFeatures(), e.Flat())
		}
		if _, err := e.PredictProba(mat.New(1, 2)); err == nil {
			t.Error("unfitted PredictProba should fail")
		}
		if err := e.PredictProbaBatchInto(mat.New(1, 2), mat.New(1, 0)); err == nil {
			t.Error("unfitted PredictProbaBatchInto should fail")
		}
		if _, err := e.Predict(mat.New(1, 2)); err == nil {
			t.Error("unfitted Predict should fail")
		}
	})
}
