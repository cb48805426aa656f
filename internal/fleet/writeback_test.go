package fleet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/servetest"
	"repro/internal/stream"
)

// sameWithVerdict reports whether two predictions carry the same bits,
// open-set verdict included.
func sameWithVerdict(a, b *stream.Prediction) bool {
	return servetest.SamePrediction(a, b) && (a.Open == nil) == (b.Open == nil) &&
		(a.Open == nil || *a.Open == *b.Open)
}

// clonePrediction deep-copies p, so a later comparison sees what p held.
func clonePrediction(p *stream.Prediction) *stream.Prediction {
	c := *p
	c.Probs = append([]float64(nil), p.Probs...)
	if p.Open != nil {
		o := *p.Open
		c.Open = &o
	}
	return &c
}

// TestPredictionReadsCopyOut pins the read side of the inline slot: every
// read (Prediction, Snapshot, EndJob) hands out the caller's own copy. A
// read taken before a tick still holds the old prediction afterwards, and
// scribbling over a returned prediction changes nothing the fleet serves.
func TestPredictionReadsCopyOut(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: servetest.Calibration(t, 31, 400)})
	if err != nil {
		t.Fatal(err)
	}
	samples := servetest.JobSamples(4, servetest.Window+3)
	feed(t, m, 4, samples[:servetest.Window])
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	before, ok := m.Prediction(4)
	if !ok || before.Open == nil {
		t.Fatalf("job 4: prediction %+v, %v after the first tick", before, ok)
	}
	kept := clonePrediction(before)

	// The fleet's own copy survives scribbling over every read.
	scribbled, _ := m.Prediction(4)
	for _, p := range []*stream.Prediction{scribbled, m.Snapshot()[0].Pred} {
		for c := range p.Probs {
			p.Probs[c] = math.NaN()
		}
		p.Open.FeatDist, p.Open.Rejected = -1, !p.Open.Rejected
		if again, _ := m.Prediction(4); !sameWithVerdict(again, kept) {
			t.Fatalf("a write to a returned prediction reached the fleet: %+v, want %+v", again, kept)
		}
	}

	// A later tick replaces the job's prediction, not the one already read.
	feed(t, m, 4, samples[servetest.Window:])
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if !sameWithVerdict(before, kept) {
		t.Fatalf("a tick changed a prediction read before it: %+v, want %+v", before, kept)
	}
	after, _ := m.Prediction(4)
	again, _ := m.Prediction(4)
	if after == again || &after.Probs[0] == &again.Probs[0] || after.Open == again.Open {
		t.Fatal("two reads share memory")
	}
	servetest.AssertSamePrediction(t, 4, after, servetest.Baseline(t, scaler, model, samples))
	if sameWithVerdict(kept, after) {
		t.Fatal("the fixture's two windows predict the same bits; the test cannot tell old from new")
	}

	final, ok := m.EndJob(4)
	if !ok || !sameWithVerdict(final, after) {
		t.Fatalf("EndJob returned %+v, want the last published %+v", final, after)
	}
}

// TestSwapResizesTheInlineRow: a job's probability row is sized by the model
// that scored it. A swap to a model with more classes, and back to fewer,
// publishes rows of the new width bit-identical to a single-job monitor, and
// a prediction read under the old model keeps its own width.
func TestSwapResizesTheInlineRow(t *testing.T) {
	scaler, narrow := servetest.Fixture(t)
	rng := rand.New(rand.NewSource(5))
	x := mat.New(240, preprocess.CovarianceDim(servetest.Sensors))
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(7)
	}
	wide := forest.New(forest.Config{NumTrees: 11, Bootstrap: true, Seed: 8})
	if err := wide.Fit(x, y, 7); err != nil {
		t.Fatal(err)
	}

	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: narrow})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 6
	seen := make([]int, jobs)
	step := func(model stream.Classifier, samples int) {
		t.Helper()
		for j := 0; j < jobs; j++ {
			feed(t, m, j, servetest.JobSamples(j, seen[j]+samples)[seen[j]:])
			seen[j] += samples
		}
		if stats, err := m.Tick(); err != nil || stats.Classified != jobs {
			t.Fatalf("tick %+v, %v", stats, err)
		}
		for j := 0; j < jobs; j++ {
			got, _ := m.Prediction(j)
			servetest.AssertSamePrediction(t, j, got, servetest.Baseline(t, scaler, model, servetest.JobSamples(j, seen[j])))
		}
	}

	step(narrow, servetest.Window)
	old, _ := m.Prediction(0)
	for _, s := range []struct {
		model *forest.Classifier
		width int
	}{{wide, 7}, {narrow, 4}, {wide, 7}} {
		if err := m.SwapClassifierDrift(s.model, nil); err != nil {
			t.Fatal(err)
		}
		step(s.model, 1)
		if got, _ := m.Prediction(0); len(got.Probs) != s.width {
			t.Fatalf("after a swap to %d classes job 0 serves %d", s.width, len(got.Probs))
		}
	}
	if len(old.Probs) != 4 {
		t.Fatalf("a prediction read under the 4-class model now has %d classes", len(old.Probs))
	}
}

// TestReadsNeverSeeATornPrediction races readers against ticks: every read
// must be one whole published prediction — its Probability the bits of
// Probs[Class], its Class the arg-max of Probs — and, under -race, the
// copy-out and the write-back must share no unguarded memory.
func TestReadsNeverSeeATornPrediction(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Drift: servetest.Calibration(t, 31, 400), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, rounds = 16, 40
	for j := 0; j < jobs; j++ {
		feed(t, m, j, servetest.JobSamples(j, servetest.Window))
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	whole := func(p *stream.Prediction) bool {
		return p.Open != nil && math.Float64bits(p.Probability) == math.Float64bits(p.Probs[p.Class]) &&
			mat.ArgMax(p.Probs) == p.Class
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < jobs; j++ {
					if p, ok := m.Prediction(j); !ok || !whole(p) {
						t.Errorf("job %d: torn read %+v (%v)", j, p, ok)
						return
					}
				}
				for _, ji := range m.Snapshot() {
					if !whole(ji.Pred) {
						t.Errorf("job %d: torn snapshot row %+v", ji.JobID, ji.Pred)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for j := 0; j < jobs; j++ {
			feed(t, m, j, servetest.JobSamples(j+100*r, 1))
		}
		if _, err := m.Tick(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
