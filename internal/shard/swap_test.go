package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
)

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

// TestSwapNeverTearsAcrossShards is the cross-shard atomicity invariant:
// while one goroutine hot-swaps between two stamped models as fast as it
// can, every whole-fleet tick must score ALL shards with a single model
// generation. A torn installation — shard 0 already on the new model while
// shard 3 still ticks the old one inside the same pass — would surface as
// mixed stamps among predictions published by one tick.
func TestSwapNeverTearsAcrossShards(t *testing.T) {
	scaler, _ := fixture(t)
	modelA := stamped{stamp: 0.75}
	modelB := stamped{stamp: 0.6}
	core, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: modelA, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Fill every job's window so each iteration's single sample marks all
	// jobs dirty and the next tick re-scores the whole fleet.
	const jobs = 32
	for j := 0; j < jobs; j++ {
		for _, s := range jobSamples(j, testWindow) {
			if err := core.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := pickModel(i)
			if err := core.SwapClassifierDrift(m, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for iter := 0; iter < 300; iter++ {
		for j := 0; j < jobs; j++ {
			if err := core.Ingest(j, jobSamples(j, 1)[0]); err != nil {
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

// pickModel alternates the two stamped models.
func pickModel(i int) stamped {
	if i%2 == 0 {
		return stamped{stamp: 0.75}
	}
	return stamped{stamp: 0.6}
}

// TestConcurrentIngestSwapEvict is the kitchen-sink race test: per-shard
// tick loops, concurrent ingest from many goroutines, continuous model
// swaps, and both lifecycle paths (EndJob, EvictIdle) all run together.
// The assertions are loose — the point is the interleaving itself under
// -race, plus the invariant that nothing errors and counters stay sane.
func TestConcurrentIngestSwapEvict(t *testing.T) {
	scaler, model := fixture(t)
	core, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

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
					for _, s := range jobSamples(j, 2) {
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
