package fleet

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/servetest"
)

// TestFleetMatchesMonitorConcurrent is the core serving invariant under
// contention: ≥64 jobs ingest their telemetry simultaneously from one
// goroutine each while another goroutine ticks continuously, and every
// job's final prediction must be bit-identical to a single-job
// stream.Monitor replaying the same samples.
func TestFleetMatchesMonitorConcurrent(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	const jobs = 80
	const perJob = servetest.Window*2 + 3 // past wraparound

	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	tickErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				tickErr <- nil
				return
			default:
				if _, err := m.Tick(); err != nil {
					tickErr <- err
					return
				}
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for _, s := range servetest.JobSamples(j, perJob) {
				if err := m.Ingest(j, s); err != nil {
					t.Error(err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	close(stop)
	if err := <-tickErr; err != nil {
		t.Fatal(err)
	}
	// Final tick picks up anything the background ticker missed.
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	if n := m.NumJobs(); n != jobs {
		t.Fatalf("registry holds %d jobs, want %d", n, jobs)
	}
	if n := m.SamplesIngested(); n != uint64(jobs*perJob) {
		t.Fatalf("ingested %d samples, want %d", n, jobs*perJob)
	}
	for j := 0; j < jobs; j++ {
		got, ok := m.Prediction(j)
		if !ok {
			t.Fatalf("job %d: missing prediction", j)
		}
		servetest.AssertSamePrediction(t, j, got, servetest.Baseline(t, scaler, model, servetest.JobSamples(j, perJob)))
	}
}

// TestFleetOverlappingJobIDs hammers the same 64 job IDs from many
// goroutines at once. Each goroutine pushes every job's own constant sample,
// so any interleaving leaves each ring filled with that constant and the
// result stays comparable to the single-job baseline despite write races on
// the same embedders.
func TestFleetOverlappingJobIDs(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	const jobs = 64
	const writers = 8

	constSample := func(j int) []float64 {
		s := make([]float64, servetest.Sensors)
		for c := range s {
			s[c] = float64(j%7) + float64(c)*0.5 + 1
		}
		return s
	}

	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer visits the jobs in a different order.
			for k := 0; k < jobs; k++ {
				j := (k*13 + w*5) % jobs
				s := constSample(j)
				for i := 0; i < servetest.Window; i++ {
					if err := m.Ingest(j, s); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != jobs {
		t.Fatalf("tick classified %d jobs, want %d", stats.Classified, jobs)
	}
	if n := m.SamplesIngested(); n != uint64(writers*jobs*servetest.Window) {
		t.Fatalf("ingested %d samples, want %d", n, writers*jobs*servetest.Window)
	}
	for j := 0; j < jobs; j++ {
		window := make([][]float64, servetest.Window)
		for i := range window {
			window[i] = constSample(j)
		}
		got, ok := m.Prediction(j)
		if !ok {
			t.Fatalf("job %d: missing prediction", j)
		}
		servetest.AssertSamePrediction(t, j, got, servetest.Baseline(t, scaler, model, window))
	}
}

// unbatched hides forest's PredictProbaBatchInto so the fallback
// PredictProba path is exercised.
type unbatched struct{ f *forest.Classifier }

func (u unbatched) PredictProba(x *mat.Matrix) (*mat.Matrix, error) { return u.f.PredictProba(x) }

func TestFleetFallbackWithoutBatchPath(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: unbatched{model}})
	if err != nil {
		t.Fatal(err)
	}
	samples := servetest.JobSamples(7, servetest.Window+2)
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
		t.Fatal("missing prediction")
	}
	servetest.AssertSamePrediction(t, 7, got, servetest.Baseline(t, scaler, model, samples))
}

func TestFleetValidationAndLifecycle(t *testing.T) {
	scaler, model := servetest.Fixture(t)

	if _, err := New(Config{Window: 1, Sensors: servetest.Sensors, Scaler: scaler, Model: model}); err == nil {
		t.Error("window < 2 should fail")
	}
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Model: model}); err == nil {
		t.Error("nil scaler should fail")
	}
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors + 1, Scaler: scaler, Model: model}); err == nil {
		t.Error("scaler shape mismatch should fail")
	}
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler}); err == nil {
		t.Error("nil model should fail")
	}
	// A zero std would make every job's features NaN; the fleet refuses it
	// before any job registers.
	poisoned := &preprocess.StandardScaler{Means: scaler.Means, Stds: append([]float64(nil), scaler.Stds...)}
	poisoned.Stds[servetest.Sensors] = 0
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: poisoned, Model: model}); err == nil {
		t.Error("a scaler with a zero std should fail")
	}

	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(1, []float64{1}); err == nil {
		t.Error("wrong sensor count should fail")
	}
	if _, ok := m.Prediction(99); ok {
		t.Error("unknown job should have no prediction")
	}

	// A job with a part-filled window is pending, not classified.
	if err := m.Ingest(1, make([]float64, servetest.Sensors)); err != nil {
		t.Fatal(err)
	}
	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != 0 {
		t.Errorf("tick stats %+v, want 0 classified", stats)
	}
	if _, ok := m.Prediction(1); ok {
		t.Error("pending job should have no prediction")
	}

	// An idle fleet tick classifies nothing and counts nothing.
	before := m.Classifications()
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if m.Classifications() != before {
		t.Error("idle tick should not classify")
	}
	if m.Ticks() != 2 {
		t.Errorf("tick count %d, want 2", m.Ticks())
	}
}
