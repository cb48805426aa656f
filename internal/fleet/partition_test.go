package fleet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/preprocess"
	"repro/internal/servetest"
	"repro/internal/stream"
)

// newPartitioned builds an empty monitor with the given partition count.
func newPartitioned(t *testing.T, scaler *preprocess.StandardScaler, model stream.Classifier, shards int) *Monitor {
	t.Helper()
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runTicks drives one tick loop per partition, each on its own goroutine
// and ticker, until stop is closed and every loop has exited — the shape
// the serving layer runs. Tick errors fail the test.
func runTicks(t *testing.T, m *Monitor, stop <-chan struct{}, every time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < m.NumShards(); i++ {
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
					if _, err := m.TickShard(i); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestShardedMatchesSingleMonitor is the partitioning equivalence
// invariant: the same per-job replay through a 4-partition monitor and
// through a one-partition monitor — with deliberately different tick
// cadences interleaved mid-stream on each side — must end in bit-identical
// predictions for every job. Partitioning changes throughput, never
// predictions.
func TestShardedMatchesSingleMonitor(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	const jobs = 60
	const perJob = servetest.Window*3 + 5 // past ring wraparound

	single := newPartitioned(t, scaler, model, 1)
	core := newPartitioned(t, scaler, model, 4)

	streams := make([][][]float64, jobs)
	for j := range streams {
		streams[j] = servetest.JobSamples(j, perJob)
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
		t.Fatalf("4 partitions register %d jobs, one partition %d", got, want)
	}
	if got, want := core.SamplesIngested(), single.SamplesIngested(); got != want {
		t.Fatalf("4 partitions ingested %d samples, one partition %d", got, want)
	}
	for j := 0; j < jobs; j++ {
		got, ok := core.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no 4-partition prediction", j)
		}
		want, ok := single.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no one-partition prediction", j)
		}
		servetest.AssertSamePrediction(t, j, got, want)
	}
}

// TestShardedConcurrentIngest replays every job from its own goroutine
// while per-partition tick loops run, then checks the concurrent result
// against a sequential one-partition monitor. Run under -race this also
// pins the locking discipline of Ingest/TickShard.
func TestShardedConcurrentIngest(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	const jobs = 64
	const perJob = servetest.Window*2 + 3

	core := newPartitioned(t, scaler, model, 4)
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
			for _, s := range servetest.JobSamples(j, perJob) {
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

	single := newPartitioned(t, scaler, model, 1)
	for j := 0; j < jobs; j++ {
		for _, s := range servetest.JobSamples(j, perJob) {
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
		servetest.AssertSamePrediction(t, j, got, want)
	}
}

// TestRoutingStable pins ShardOf as a pure function of job ID and
// partition count, and checks jobs spread over every partition rather than
// clumping.
func TestRoutingStable(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	core := newPartitioned(t, scaler, model, 8)
	seen := make([]int, core.NumShards())
	for j := 0; j < 4096; j++ {
		s := core.ShardOf(j)
		if s != core.ShardOf(j) {
			t.Fatalf("job %d: routing not stable", j)
		}
		if s < 0 || s >= core.NumShards() {
			t.Fatalf("job %d routed to partition %d of %d", j, s, core.NumShards())
		}
		seen[s]++
	}
	for i, n := range seen {
		// 4096 jobs over 8 partitions: a uniform hash puts ~512 on each;
		// an empty or wildly overloaded partition means broken mixing.
		if n < 256 || n > 1024 {
			t.Fatalf("partition %d holds %d of 4096 jobs; routing is badly skewed", i, n)
		}
	}
}

// TestCoreValidation pins the partition-facing checks: a monitor holds one
// partition unless Shards asks for more, every partition shares the
// monitor's window shape, TickShard refuses an index outside the
// partitions, and a nil swap is refused on a partitioned monitor.
func TestCoreValidation(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	def, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.NumShards(); got != 1 {
		t.Fatalf("default NumShards = %d, want 1", got)
	}
	c := newPartitioned(t, scaler, model, 3)
	if got := c.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	if c.Window() != servetest.Window || c.Sensors() != servetest.Sensors {
		t.Fatalf("window shape %dx%d, want %dx%d", c.Window(), c.Sensors(), servetest.Window, servetest.Sensors)
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
}
