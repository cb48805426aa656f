package fleet

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/stream"
)

const (
	testWindow  = 6
	testSensors = 3
)

// fixture builds a scaler fitted for the test window shape and a small
// random forest over the matching covariance-embedding dimension, shared by
// the equivalence tests.
func fixture(t testing.TB) (*preprocess.StandardScaler, *forest.Classifier) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	train := mat.New(40, testWindow*testSensors)
	for i := range train.Data {
		train.Data[i] = rng.NormFloat64()*3 + 5
	}
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(train); err != nil {
		t.Fatal(err)
	}

	dim := preprocess.CovarianceDim(testSensors)
	x := mat.New(200, dim)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(4)
	}
	f := forest.New(forest.Config{NumTrees: 15, Bootstrap: true, Seed: 2})
	if err := f.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	return &scaler, f
}

// jobSamples derives a deterministic telemetry stream for one job.
func jobSamples(jobID, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(jobID)*7919 + 3))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, testSensors)
		for c := range s {
			s[c] = rng.NormFloat64()*2 + 4
		}
		out[i] = s
	}
	return out
}

// baseline replays the samples through a fresh single-job stream.Monitor.
func baseline(t *testing.T, scaler *preprocess.StandardScaler, model stream.Classifier, samples [][]float64) *stream.Prediction {
	t.Helper()
	emb, err := stream.NewWindowedEmbedder(testWindow, testSensors, scaler)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := emb.Push(s); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := (&stream.Monitor{Embedder: emb, Model: model}).Classify()
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func assertSamePrediction(t *testing.T, jobID int, got, want *stream.Prediction) {
	t.Helper()
	if got == nil {
		t.Fatalf("job %d: no fleet prediction", jobID)
	}
	if got.Class != want.Class || got.Probability != want.Probability {
		t.Fatalf("job %d: fleet (%d, %v) vs monitor (%d, %v)",
			jobID, got.Class, got.Probability, want.Class, want.Probability)
	}
	if len(got.Probs) != len(want.Probs) {
		t.Fatalf("job %d: %d probs vs %d", jobID, len(got.Probs), len(want.Probs))
	}
	for c := range want.Probs {
		if got.Probs[c] != want.Probs[c] {
			t.Fatalf("job %d class %d: fleet %v vs monitor %v (not bit-identical)",
				jobID, c, got.Probs[c], want.Probs[c])
		}
	}
}

// TestFleetMatchesMonitorConcurrent is the core serving invariant under
// contention: ≥64 jobs ingest their telemetry simultaneously from one
// goroutine each while another goroutine ticks continuously, and every
// job's final prediction must be bit-identical to a single-job
// stream.Monitor replaying the same samples.
func TestFleetMatchesMonitorConcurrent(t *testing.T) {
	scaler, model := fixture(t)
	const jobs = 80
	const perJob = testWindow*2 + 3 // past wraparound

	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
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
			for _, s := range jobSamples(j, perJob) {
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
		assertSamePrediction(t, j, got, baseline(t, scaler, model, jobSamples(j, perJob)))
	}
}

// TestFleetOverlappingJobIDs hammers the same 64 job IDs from many
// goroutines at once. Each goroutine pushes every job's own constant sample,
// so any interleaving leaves each ring filled with that constant and the
// result stays comparable to the single-job baseline despite write races on
// the same embedders.
func TestFleetOverlappingJobIDs(t *testing.T) {
	scaler, model := fixture(t)
	const jobs = 64
	const writers = 8

	constSample := func(j int) []float64 {
		s := make([]float64, testSensors)
		for c := range s {
			s[c] = float64(j%7) + float64(c)*0.5 + 1
		}
		return s
	}

	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
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
				for i := 0; i < testWindow; i++ {
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
	if n := m.SamplesIngested(); n != uint64(writers*jobs*testWindow) {
		t.Fatalf("ingested %d samples, want %d", n, writers*jobs*testWindow)
	}
	for j := 0; j < jobs; j++ {
		window := make([][]float64, testWindow)
		for i := range window {
			window[i] = constSample(j)
		}
		got, ok := m.Prediction(j)
		if !ok {
			t.Fatalf("job %d: missing prediction", j)
		}
		assertSamePrediction(t, j, got, baseline(t, scaler, model, window))
	}
}

// unbatched hides forest's PredictProbaBatchInto so the fallback
// PredictProba path is exercised.
type unbatched struct{ f *forest.Classifier }

func (u unbatched) PredictProba(x *mat.Matrix) (*mat.Matrix, error) { return u.f.PredictProba(x) }

func TestFleetFallbackWithoutBatchPath(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: unbatched{model}})
	if err != nil {
		t.Fatal(err)
	}
	samples := jobSamples(7, testWindow+2)
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
	assertSamePrediction(t, 7, got, baseline(t, scaler, model, samples))
}

func TestFleetValidationAndLifecycle(t *testing.T) {
	scaler, model := fixture(t)

	if _, err := New(Config{Window: 1, Sensors: testSensors, Scaler: scaler, Model: model}); err == nil {
		t.Error("window < 2 should fail")
	}
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Model: model}); err == nil {
		t.Error("nil scaler should fail")
	}
	if _, err := New(Config{Window: testWindow, Sensors: testSensors + 1, Scaler: scaler, Model: model}); err == nil {
		t.Error("scaler shape mismatch should fail")
	}
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler}); err == nil {
		t.Error("nil model should fail")
	}
	// A zero std would make every job's features NaN; the fleet refuses it
	// before any job registers.
	poisoned := &preprocess.StandardScaler{Means: scaler.Means, Stds: append([]float64(nil), scaler.Stds...)}
	poisoned.Stds[testSensors] = 0
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: poisoned, Model: model}); err == nil {
		t.Error("a scaler with a zero std should fail")
	}

	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
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
	if err := m.Ingest(1, make([]float64, testSensors)); err != nil {
		t.Fatal(err)
	}
	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != 0 || stats.Pending != 1 {
		t.Errorf("tick stats %+v, want 0 classified / 1 pending", stats)
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
