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

// swapFixture builds a scaler plus two independently trained forests so
// their predictions on the same window differ with overwhelming probability.
func swapFixture(t *testing.T) (*preprocess.StandardScaler, *forest.Classifier, *forest.Classifier) {
	t.Helper()
	scaler, modelA := fixture(t)

	rng := rand.New(rand.NewSource(99))
	dim := preprocess.CovarianceDim(testSensors)
	x := mat.New(200, dim)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(4)
	}
	modelB := forest.New(forest.Config{NumTrees: 9, MaxDepth: 5, Bootstrap: true, Seed: 77})
	if err := modelB.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	return scaler, modelA, modelB
}

// TestSwapClassifierBitIdenticalAcrossSwap is the hot-swap acceptance
// invariant: under concurrent ingest and continuous ticking, predictions
// published before the swap are bit-identical to per-job stream.Monitor
// baselines on the old model, and predictions after the swap to baselines on
// the new model.
func TestSwapClassifierBitIdenticalAcrossSwap(t *testing.T) {
	scaler, modelA, modelB := swapFixture(t)
	const jobs = 48
	const phase1 = testWindow + 2 // full window plus wraparound
	const phase2 = 5

	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: modelA})
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
				samples := jobSamples(j, to)
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
		assertSamePrediction(t, j, got, baseline(t, scaler, modelA, jobSamples(j, phase1)))
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
		assertSamePrediction(t, j, got, baseline(t, scaler, modelB, jobSamples(j, phase1+phase2)))
	}
}

// TestSwapNeverTearsATick hammers SwapClassifier from a background goroutine
// while the main loop keeps ingesting fresh jobs and ticking. Whichever
// model a tick lands on, every published prediction must be bit-identical to
// the serial baseline of model A or of model B — a torn tick (half old
// model, half new) or a torn model install would match neither.
func TestSwapNeverTearsATick(t *testing.T) {
	scaler, modelA, modelB := swapFixture(t)
	const jobs = 16
	const rounds = 80

	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: modelA})
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

	matches := func(got, want *stream.Prediction) bool {
		if got.Class != want.Class || got.Probability != want.Probability || len(got.Probs) != len(want.Probs) {
			return false
		}
		for c := range want.Probs {
			if got.Probs[c] != want.Probs[c] {
				return false
			}
		}
		return true
	}

	for r := 0; r < rounds; r++ {
		// Fresh job IDs each round, so every window is built deterministically
		// from scratch and classified by exactly one tick.
		for k := 0; k < jobs; k++ {
			j := r*jobs + k
			for _, s := range jobSamples(j, testWindow) {
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
			samples := jobSamples(j, testWindow)
			if !matches(got, baseline(t, scaler, modelA, samples)) &&
				!matches(got, baseline(t, scaler, modelB, samples)) {
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
	scaler, modelA, modelB := swapFixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: modelA})
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
	samples := jobSamples(3, testWindow)
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
	assertSamePrediction(t, 3, got, baseline(t, scaler, modelB, samples))

	// And swapping back restores the batched path.
	if err := m.SwapClassifierDrift(modelA, nil); err != nil {
		t.Fatal(err)
	}
	if m.Swaps() != 2 {
		t.Fatalf("swap count %d, want 2", m.Swaps())
	}
}
