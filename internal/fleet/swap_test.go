package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/servetest"
	"repro/internal/stream"
)

// TestSwapClassifierBitIdenticalAcrossSwap is the hot-swap acceptance
// invariant: under concurrent ingest and continuous ticking, predictions
// published before the swap are bit-identical to per-job stream.Monitor
// baselines on the old model, and predictions after the swap to baselines on
// the new model.
func TestSwapClassifierBitIdenticalAcrossSwap(t *testing.T) {
	scaler, modelA := servetest.Fixture(t)
	modelB := servetest.AltForest(t)
	const jobs = 48
	const phase1 = servetest.Window + 2 // full window plus wraparound
	const phase2 = 5

	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: modelA})
	if err != nil {
		t.Fatal(err)
	}

	// Continuous background ticker across both phases and the swap itself.
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

	ingest := func(from, to int) {
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				samples := servetest.JobSamples(j, to)
				for _, s := range samples[from:] {
					if err := m.Ingest(j, s); err != nil {
						t.Error(err)
						return
					}
				}
			}(j)
		}
		wg.Wait()
	}

	// Phase 1: ingest on model A, settle, check against A baselines.
	ingest(0, phase1)
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		got, ok := m.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no pre-swap prediction", j)
		}
		servetest.AssertSamePrediction(t, j, got, servetest.Baseline(t, scaler, modelA, servetest.JobSamples(j, phase1)))
	}

	// Swap while the background ticker is still running.
	if err := m.SwapClassifierDrift(modelB, nil); err != nil {
		t.Fatal(err)
	}
	if n := m.Swaps(); n != 1 {
		t.Fatalf("swap count %d, want 1", n)
	}

	// Phase 2: further ingest lands on model B.
	ingest(phase1, phase1+phase2)
	close(stop)
	if err := <-tickErr; err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		got, ok := m.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no post-swap prediction", j)
		}
		servetest.AssertSamePrediction(t, j, got, servetest.Baseline(t, scaler, modelB, servetest.JobSamples(j, phase1+phase2)))
	}
}

// TestSwapNeverTearsATick hammers SwapClassifier from a background goroutine
// while the main loop keeps ingesting fresh jobs and ticking. Whichever
// model a tick lands on, every published prediction must be bit-identical to
// the serial baseline of model A or of model B — a torn tick (half old
// model, half new) or a torn model install would match neither.
func TestSwapNeverTearsATick(t *testing.T) {
	scaler, modelA := servetest.Fixture(t)
	modelB := servetest.AltForest(t)
	const jobs = 16
	const rounds = 80

	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: modelA})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		models := []stream.Classifier{modelB, modelA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := m.SwapClassifierDrift(models[i%2], nil); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}
	}()

	for r := 0; r < rounds; r++ {
		// Fresh job IDs each round, so every window is built deterministically
		// from scratch and classified by exactly one tick.
		for k := 0; k < jobs; k++ {
			j := r*jobs + k
			for _, s := range servetest.JobSamples(j, servetest.Window) {
				if err := m.Ingest(j, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < jobs; k++ {
			j := r*jobs + k
			got, ok := m.Prediction(j)
			if !ok {
				t.Fatalf("round %d job %d: no prediction after tick", r, j)
			}
			samples := servetest.JobSamples(j, servetest.Window)
			if !servetest.SamePrediction(got, servetest.Baseline(t, scaler, modelA, samples)) &&
				!servetest.SamePrediction(got, servetest.Baseline(t, scaler, modelB, samples)) {
				t.Fatalf("round %d job %d: prediction matches neither baseline (torn swap?)", r, j)
			}
		}
	}
	close(stop)
	swapper.Wait()
	if m.Swaps() == 0 {
		t.Fatal("swapper never ran")
	}
}

func TestSwapValidationAndFallback(t *testing.T) {
	scaler, modelA := servetest.Fixture(t)
	modelB := servetest.AltForest(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: modelA})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SwapClassifierDrift(nil, nil); err == nil {
		t.Fatal("nil swap should fail")
	}
	if m.Swaps() != 0 {
		t.Fatal("failed swap counted")
	}

	// Swapping to a model without the batched fast path downgrades to the
	// multi-row PredictProba fallback — and still matches the baseline.
	if err := m.SwapClassifierDrift(unbatched{modelB}, nil); err != nil {
		t.Fatal(err)
	}
	samples := servetest.JobSamples(3, servetest.Window)
	for _, s := range samples {
		if err := m.Ingest(3, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Prediction(3)
	if !ok {
		t.Fatal("missing prediction")
	}
	servetest.AssertSamePrediction(t, 3, got, servetest.Baseline(t, scaler, modelB, samples))

	// And swapping back restores the batched path.
	if err := m.SwapClassifierDrift(modelA, nil); err != nil {
		t.Fatal(err)
	}
	if m.Swaps() != 2 {
		t.Fatalf("swap count %d, want 2", m.Swaps())
	}
}

// stamped is a fake classifier whose predictions carry a model identity:
// every row's winning probability is the stamp, so a prediction reveals
// which model generation scored it.
type stamped struct{ stamp float64 }

func (s stamped) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	out := mat.New(x.Rows, 2)
	for i := 0; i < x.Rows; i++ {
		row := out.Row(i)
		row[0] = s.stamp
		row[1] = 1 - s.stamp
	}
	return out, nil
}

// TestSwapNeverTearsAcrossShards is the cross-partition atomicity
// invariant: while one goroutine hot-swaps between two stamped models as
// fast as it can, every whole-fleet tick must score ALL partitions with a
// single model generation. A torn installation — partition 0 already on the
// new model while partition 3 still ticks the old one inside the same pass
// — would surface as mixed stamps among predictions published by one tick.
func TestSwapNeverTearsAcrossShards(t *testing.T) {
	scaler, _ := servetest.Fixture(t)
	modelA := stamped{stamp: 0.75}
	modelB := stamped{stamp: 0.6}
	core := newPartitioned(t, scaler, modelA, 4)

	// Fill every job's window so each iteration's single sample marks all
	// jobs dirty and the next tick re-scores the whole fleet.
	const jobs = 32
	for j := 0; j < jobs; j++ {
		for _, s := range servetest.JobSamples(j, servetest.Window) {
			if err := core.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		models := []stamped{modelB, modelA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := core.SwapClassifierDrift(models[i%2], nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for iter := 0; iter < 300; iter++ {
		for j := 0; j < jobs; j++ {
			if err := core.Ingest(j, servetest.JobSamples(j, 1)[0]); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := core.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Classified != jobs {
			t.Fatalf("iter %d: tick classified %d of %d jobs", iter, stats.Classified, jobs)
		}
		// All predictions published by this tick must carry one stamp.
		first := -1.0
		for j := 0; j < jobs; j++ {
			pred, ok := core.Prediction(j)
			if !ok {
				t.Fatalf("iter %d: job %d has no prediction", iter, j)
			}
			if first < 0 {
				first = pred.Probability
			} else if pred.Probability != first {
				t.Fatalf("iter %d: torn generation — job %d stamped %v, job 0 stamped %v",
					iter, j, pred.Probability, first)
			}
		}
		if first != modelA.stamp && first != modelB.stamp {
			t.Fatalf("iter %d: unknown stamp %v", iter, first)
		}
	}
	close(stop)
	<-swapDone
	if core.Swaps() == 0 {
		t.Fatal("swap goroutine never swapped; the test raced nothing")
	}
}

// TestConcurrentIngestSwapEvict is the kitchen-sink race test:
// per-partition tick loops, concurrent ingest from many goroutines, continuous model
// swaps, and both lifecycle paths (EndJob, EvictIdle) all run together.
// The assertions are loose — the point is the interleaving itself under
// -race, plus the invariant that nothing errors and counters stay sane.
func TestConcurrentIngestSwapEvict(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	core := newPartitioned(t, scaler, model, 4)

	stop := make(chan struct{})
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		runTicks(t, core, stop, 200*time.Microsecond)
	}()

	const jobs = 48
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // ingest
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for j := w; j < jobs; j += 4 {
					for _, s := range servetest.JobSamples(j, 2) {
						if err := core.Ingest(j, s); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // swap
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := core.SwapClassifierDrift(model, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // lifecycle
		defer wg.Done()
		for i := 0; i < 200; i++ {
			core.EndJob(i % jobs)
			core.EvictIdle(50 * time.Millisecond)
			core.Snapshot()
		}
	}()
	wg.Wait()
	close(stop)
	<-runDone

	if _, err := core.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := core.Swaps(); got != 200 {
		t.Fatalf("Swaps = %d, want 200", got)
	}
	if core.NumJobs() > jobs {
		t.Fatalf("registry holds %d jobs, more than the %d ever ingested", core.NumJobs(), jobs)
	}
}
