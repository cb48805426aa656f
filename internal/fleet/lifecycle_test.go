package fleet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/stream"
)

// flaky wraps a classifier with an on/off failure switch, modelling a
// transient model error mid-serving (e.g. a half-rolled-out swap). It
// deliberately does not implement IntoClassifier, so ticks score it
// through PredictProba.
type flaky struct {
	inner stream.Classifier
	fail  bool
}

func (f *flaky) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	if f.fail {
		return nil, errors.New("transient model failure")
	}
	return f.inner.PredictProba(x)
}

// TestTickErrorKeepsJobsDirty is the regression test for the silent
// classification loss: a tick that fails must leave every collected job
// dirty, so the next tick re-scores it even if no new samples arrive. On
// the old code the dirty flag was cleared during batch collection, so the
// second tick found nothing to do and the pending classifications vanished.
func TestTickErrorKeepsJobsDirty(t *testing.T) {
	scaler, model := fixture(t)
	fc := &flaky{inner: model}
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: fc})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 5
	for j := 0; j < jobs; j++ {
		for _, s := range jobSamples(j, testWindow+1) {
			if err := m.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	fc.fail = true
	if _, err := m.Tick(); err == nil {
		t.Fatal("tick should surface the model error")
	}
	for j := 0; j < jobs; j++ {
		if _, ok := m.Prediction(j); ok {
			t.Fatalf("job %d: prediction published despite model error", j)
		}
	}

	// No new samples arrive; the retry tick alone must recover every job.
	fc.fail = false
	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != jobs {
		t.Fatalf("retry tick classified %d jobs, want %d", stats.Classified, jobs)
	}
	for j := 0; j < jobs; j++ {
		got, ok := m.Prediction(j)
		if !ok {
			t.Fatalf("job %d: classification lost across transient model error", j)
		}
		assertSamePrediction(t, j, got, baseline(t, scaler, model, jobSamples(j, testWindow+1)))
	}
}

// wideBatch returns one row too many, triggering the tick's row-count
// mismatch error path.
type wideBatch struct{ inner stream.Classifier }

func (w wideBatch) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	p, err := w.inner.PredictProba(x)
	if err != nil {
		return nil, err
	}
	return mat.New(p.Rows+1, p.Cols), nil
}

// TestTickRowMismatchKeepsJobsDirty covers the same loss bug on the tick's
// row-count validation: after the mismatch error, a classifier swap
// plus a plain retry tick must still classify the collected jobs.
func TestTickRowMismatchKeepsJobsDirty(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: wideBatch{model}})
	if err != nil {
		t.Fatal(err)
	}
	samples := jobSamples(3, testWindow)
	for _, s := range samples {
		if err := m.Ingest(3, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err == nil {
		t.Fatal("tick should surface the row-count mismatch")
	}
	if err := m.SwapClassifierDrift(model, nil); err != nil {
		t.Fatal(err)
	}
	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != 1 {
		t.Fatalf("retry tick classified %d jobs, want 1", stats.Classified)
	}
	got, ok := m.Prediction(3)
	if !ok {
		t.Fatal("classification lost across row-mismatch error")
	}
	assertSamePrediction(t, 3, got, baseline(t, scaler, model, samples))
}

// TestPendingCountsAllUnfilledJobs pins the documented TickStats.Pending
// semantics: every registered job whose window has not filled is pending,
// whether or not samples arrived since the last tick. The old code checked
// the dirty flag before readiness and so undercounted non-dirty unfilled
// jobs; the second job's state is forced to that corner directly so the
// ordering stays pinned even though normal transitions rarely reach it.
func TestPendingCountsAllUnfilledJobs(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}

	// Job 1: partial window, dirty.
	if err := m.Ingest(1, make([]float64, testSensors)); err != nil {
		t.Fatal(err)
	}
	// Job 2: partial window with the dirty flag lowered.
	if err := m.Ingest(2, make([]float64, testSensors)); err != nil {
		t.Fatal(err)
	}
	_, sh := m.stripeFor(2)
	sh.mu.Lock()
	sh.jobs[2].dirty = false
	sh.mu.Unlock()

	for pass := 1; pass <= 2; pass++ {
		stats, err := m.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pending != 2 {
			t.Fatalf("tick %d: Pending = %d, want 2 (all unfilled jobs)", pass, stats.Pending)
		}
	}
}

// TestRejectedSampleDoesNotRegister pins the registry-growth boundary at
// the ingest edge: an invalid sample must not allocate a job slot.
func TestRejectedSampleDoesNotRegister(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 100; j++ {
		if err := m.Ingest(j, []float64{1}); err == nil {
			t.Fatal("wrong-width sample should be rejected")
		}
	}
	if n := m.NumJobs(); n != 0 {
		t.Fatalf("rejected samples registered %d jobs, want 0", n)
	}
}

// TestEndJobAndReRegister pins the lifecycle contract: EndJob frees the
// slot and returns the final prediction; a later sample re-registers the
// job from scratch and it classifies cleanly again.
func TestEndJobAndReRegister(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	samples := jobSamples(11, testWindow)
	for _, s := range samples {
		if err := m.Ingest(11, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	final, ok := m.EndJob(11)
	if !ok {
		t.Fatal("EndJob should find the registered job")
	}
	assertSamePrediction(t, 11, final, baseline(t, scaler, model, samples))
	if n := m.NumJobs(); n != 0 {
		t.Fatalf("registry holds %d jobs after EndJob, want 0", n)
	}
	if _, ok := m.Prediction(11); ok {
		t.Fatal("ended job should have no prediction")
	}
	if _, ok := m.EndJob(11); ok {
		t.Fatal("double EndJob should report an unknown job")
	}
	if got := m.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// Re-ingest: the job starts over with an empty window.
	resamples := jobSamples(12, testWindow)
	for _, s := range resamples {
		if err := m.Ingest(11, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Prediction(11)
	if !ok {
		t.Fatal("re-registered job should classify again")
	}
	assertSamePrediction(t, 11, got, baseline(t, scaler, model, resamples))
}

// TestEvictIdleShrinksRegistry pins the unbounded-growth fix: idle jobs are
// evicted, active jobs survive, and an evicted job re-registers cleanly on
// re-ingest.
func TestEvictIdleShrinksRegistry(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 40
	for j := 0; j < jobs; j++ {
		for _, s := range jobSamples(j, testWindow) {
			if err := m.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	// Nothing is a day idle: nothing goes.
	if n := m.EvictIdle(24 * time.Hour); n != 0 {
		t.Fatalf("evicted %d jobs against a 24h idle bound, want 0", n)
	}
	if n := m.NumJobs(); n != jobs {
		t.Fatalf("registry holds %d jobs, want %d", n, jobs)
	}

	// Everything already ingested is idle against a zero bound.
	if n := m.EvictIdle(0); n != jobs {
		t.Fatalf("evicted %d jobs, want %d", n, jobs)
	}
	if n := m.NumJobs(); n != 0 {
		t.Fatalf("registry holds %d jobs after eviction, want 0", n)
	}
	if got := m.Evictions(); got != jobs {
		t.Fatalf("evictions = %d, want %d", got, jobs)
	}

	// An evicted job re-registers on re-ingest and classifies again.
	samples := jobSamples(7, testWindow)
	for _, s := range samples {
		if err := m.Ingest(7, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Prediction(7)
	if !ok {
		t.Fatal("evicted job should classify again after re-ingest")
	}
	assertSamePrediction(t, 7, got, baseline(t, scaler, model, samples))
}

// TestSnapshotView pins the read-only fleet view the serving layer's
// snapshot endpoint is built on.
func TestSnapshotView(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); len(got) != 0 {
		t.Fatalf("empty fleet snapshot has %d rows", len(got))
	}

	before := time.Now()
	// Job 5: classified. Job 9: partial window.
	for _, s := range jobSamples(5, testWindow) {
		if err := m.Ingest(5, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Ingest(9, jobSamples(9, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].JobID != 5 || snap[1].JobID != 9 {
		t.Fatalf("snapshot = %+v, want jobs [5 9]", snap)
	}
	j5, j9 := snap[0], snap[1]
	if !j5.Ready || j5.Samples != testWindow || j5.Pred == nil {
		t.Fatalf("job 5 snapshot %+v: want ready, %d samples, a prediction", j5, testWindow)
	}
	assertSamePrediction(t, 5, j5.Pred, baseline(t, scaler, model, jobSamples(5, testWindow)))
	if j9.Ready || j9.Samples != 1 || j9.Pred != nil {
		t.Fatalf("job 9 snapshot %+v: want not ready, 1 sample, no prediction", j9)
	}
	for _, ji := range snap {
		if ji.LastSeen.Before(before) || ji.LastSeen.After(time.Now()) {
			t.Fatalf("job %d: implausible LastSeen %v", ji.JobID, ji.LastSeen)
		}
	}

	if w, s := m.Window(), m.Sensors(); w != testWindow || s != testSensors {
		t.Fatalf("monitor shape %dx%d, want %dx%d", w, s, testWindow, testSensors)
	}
}
