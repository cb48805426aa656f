package shard

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
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
// random forest over the matching covariance-embedding dimension.
func fixture(t *testing.T) (*preprocess.StandardScaler, *forest.Classifier) {
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

func newCore(t *testing.T, scaler *preprocess.StandardScaler, model stream.Classifier, shards int) *Core {
	t.Helper()
	c, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newSingle builds the single-monitor baseline the sharded core is
// compared against.
func newSingle(t *testing.T, scaler *preprocess.StandardScaler, model stream.Classifier) *fleet.Monitor {
	t.Helper()
	m, err := fleet.New(fleet.Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runTicks drives one tick loop per shard, each on its own goroutine and
// ticker, until stop is closed and every loop has exited — the shape the
// serving layer runs. Tick errors fail the test.
func runTicks(t *testing.T, c *Core, stop <-chan struct{}, every time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < c.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk := time.NewTicker(every)
			defer tk.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tk.C:
					if _, err := c.TickShard(i); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func assertSamePrediction(t *testing.T, jobID int, got, want *stream.Prediction) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("job %d: missing prediction (sharded %v, single %v)", jobID, got, want)
	}
	if got.Class != want.Class || got.Probability != want.Probability {
		t.Fatalf("job %d: sharded (%d, %v) vs single (%d, %v)",
			jobID, got.Class, got.Probability, want.Class, want.Probability)
	}
	if len(got.Probs) != len(want.Probs) {
		t.Fatalf("job %d: %d probs vs %d", jobID, len(got.Probs), len(want.Probs))
	}
	for c := range want.Probs {
		if got.Probs[c] != want.Probs[c] {
			t.Fatalf("job %d class %d: sharded %v vs single %v (not bit-identical)",
				jobID, c, got.Probs[c], want.Probs[c])
		}
	}
}

// TestShardedMatchesSingleMonitor is the tentpole equivalence invariant:
// the same per-job replay through a 4-shard Core and through one
// fleet.Monitor — with deliberately different tick cadences interleaved
// mid-stream on each side — must end in bit-identical predictions for
// every job. Sharding changes throughput, never predictions.
func TestShardedMatchesSingleMonitor(t *testing.T) {
	scaler, model := fixture(t)
	const jobs = 60
	const perJob = testWindow*3 + 5 // past ring wraparound

	single := newSingle(t, scaler, model)
	core := newCore(t, scaler, model, 4)

	streams := make([][][]float64, jobs)
	for j := range streams {
		streams[j] = jobSamples(j, perJob)
	}
	for i := 0; i < perJob; i++ {
		for j := 0; j < jobs; j++ {
			s := streams[j][i]
			if err := single.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
			if err := core.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
		// Different mid-stream cadences on purpose: tick timing must not
		// be observable in final predictions.
		if i%3 == 0 {
			if _, err := single.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			if _, err := core.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := single.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Tick(); err != nil {
		t.Fatal(err)
	}

	if got, want := core.NumJobs(), single.NumJobs(); got != want {
		t.Fatalf("core registers %d jobs, single monitor %d", got, want)
	}
	if got, want := core.SamplesIngested(), single.SamplesIngested(); got != want {
		t.Fatalf("core ingested %d samples, single monitor %d", got, want)
	}
	for j := 0; j < jobs; j++ {
		got, ok := core.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no sharded prediction", j)
		}
		want, ok := single.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no single-monitor prediction", j)
		}
		assertSamePrediction(t, j, got, want)
	}
}

// TestShardedConcurrentIngest replays every job from its own goroutine
// while per-shard tick loops run, then checks the concurrent result
// against a sequential single monitor. Run under -race this also pins the
// locking discipline of Ingest/TickShard.
func TestShardedConcurrentIngest(t *testing.T) {
	scaler, model := fixture(t)
	const jobs = 64
	const perJob = testWindow*2 + 3

	core := newCore(t, scaler, model, 4)
	stop := make(chan struct{})
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		runTicks(t, core, stop, 100*time.Microsecond)
	}()

	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for _, s := range jobSamples(j, perJob) {
				if err := core.Ingest(j, s); err != nil {
					t.Error(err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	close(stop)
	<-runDone
	if t.Failed() {
		t.FailNow()
	}
	if _, err := core.Tick(); err != nil {
		t.Fatal(err)
	}

	single := newSingle(t, scaler, model)
	for j := 0; j < jobs; j++ {
		for _, s := range jobSamples(j, perJob) {
			if err := single.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := single.Tick(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		got, ok := core.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no prediction", j)
		}
		want, _ := single.Prediction(j)
		assertSamePrediction(t, j, got, want)
	}
}

// TestRoutingStable pins ShardOf as a pure function of job ID and shard
// count, and checks jobs spread over every shard rather than clumping.
func TestRoutingStable(t *testing.T) {
	scaler, model := fixture(t)
	core := newCore(t, scaler, model, 8)
	seen := make([]int, core.NumShards())
	for j := 0; j < 4096; j++ {
		s := core.ShardOf(j)
		if s != core.ShardOf(j) {
			t.Fatalf("job %d: routing not stable", j)
		}
		if s < 0 || s >= core.NumShards() {
			t.Fatalf("job %d routed to shard %d of %d", j, s, core.NumShards())
		}
		seen[s]++
	}
	for i, n := range seen {
		// 4096 jobs over 8 shards: a uniform hash puts ~512 on each; an
		// empty or wildly overloaded shard means broken mixing.
		if n < 256 || n > 1024 {
			t.Fatalf("shard %d holds %d of 4096 jobs; routing is badly skewed", i, n)
		}
	}
}

func TestCoreValidation(t *testing.T) {
	scaler, model := fixture(t)
	if _, err := New(Config{Window: 1, Sensors: testSensors, Scaler: scaler, Model: model}); err == nil {
		t.Error("window < 2 should fail")
	}
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Model: model}); err == nil {
		t.Error("nil scaler should fail")
	}
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler}); err == nil {
		t.Error("nil model should fail")
	}
	c := newCore(t, scaler, model, 3)
	if got := c.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	if c.Window() != testWindow || c.Sensors() != testSensors {
		t.Fatalf("window shape %dx%d, want %dx%d", c.Window(), c.Sensors(), testWindow, testSensors)
	}
	if _, err := c.TickShard(-1); err == nil {
		t.Error("TickShard(-1) should fail")
	}
	if _, err := c.TickShard(3); err == nil {
		t.Error("TickShard out of range should fail")
	}
	if err := c.SwapClassifierDrift(nil, nil); err == nil {
		t.Error("nil swap should fail")
	}
	def, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if def.NumShards() < 1 {
		t.Fatalf("default shard count %d", def.NumShards())
	}
}
