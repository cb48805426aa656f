package fleet

import (
	"fmt"
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
// invariant: the same stream through a 4-partition monitor and through a
// one-partition monitor, with deliberately different tick cadences
// mid-stream on each side and the windows wrapping, ends in bit-identical
// predictions for every job. Partitioning changes throughput, never
// predictions. A row of the twin table (twin_test.go).
func TestShardedMatchesSingleMonitor(t *testing.T) {
	runTwins(t, twinRow{a: twinSide{shards: 4, tickEvery: 300}, b: twinSide{shards: 1, tickEvery: 180},
		jobs: 60, perJob: servetest.Window*3 + 5, seed: 1})
}

// TestShardedConcurrentIngest replays every job from its own goroutine
// while per-partition tick loops run, and holds the result to a sequential
// one-partition monitor. Run under -race this also pins the locking
// discipline of Ingest, IngestBatch and TickShard. Rows of the twin table.
func TestShardedConcurrentIngest(t *testing.T) {
	for _, batch := range []bool{false, true} {
		runTwins(t, twinRow{name: fmt.Sprintf("batch=%v", batch), a: twinSide{shards: 4, race: true, batch: batch},
			b: twinSide{shards: 1}, jobs: 64, perJob: servetest.Window*2 + 3, seed: 2})
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
