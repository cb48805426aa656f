package fleet

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/servetest"
)

// shardedIDs returns n job IDs that all route to the given partition — the
// tool for building deliberately uneven job distributions.
func shardedIDs(t *testing.T, c *Monitor, shard, n int) []int {
	t.Helper()
	var ids []int
	for j := 0; len(ids) < n; j++ {
		if c.ShardOf(j) == shard {
			ids = append(ids, j)
		}
		if j > 1_000_000 {
			t.Fatalf("could not find %d jobs routing to partition %d", n, shard)
		}
	}
	return ids
}

// fill pushes enough samples to fill (and wrap) the job's window.
func fill(t *testing.T, c *Monitor, jobID int) {
	t.Helper()
	for _, s := range servetest.JobSamples(jobID, servetest.Window+1) {
		if err := c.Ingest(jobID, s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeEmptyCore pins the degenerate merges: a partitioned monitor
// with no jobs at all snapshots empty and ticks to zero stats on every
// partition.
func TestMergeEmptyCore(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	c := newPartitioned(t, scaler, model, 4)
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("empty core snapshot has %d rows", len(snap))
	}
	stats, err := c.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != 0 {
		t.Fatalf("empty core tick stats %+v", stats)
	}
	if c.Ticks() != uint64(c.NumShards()) {
		t.Fatalf("one full tick advanced Ticks to %d, want %d", c.Ticks(), c.NumShards())
	}
}

// TestMergeUnevenDistribution loads every job onto one partition and
// leaves the rest empty: the merged TickStats must equal that one
// partition's stats, and the merged Snapshot must list exactly those jobs,
// ID-sorted, with empty partitions contributing nothing.
func TestMergeUnevenDistribution(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	c := newPartitioned(t, scaler, model, 4)
	const loaded = 2
	ids := shardedIDs(t, c, loaded, 12)
	// Half the jobs get full windows, half stay pending.
	for i, id := range ids {
		if i%2 == 0 {
			fill(t, c, id)
		} else if err := c.Ingest(id, servetest.JobSamples(id, 1)[0]); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := c.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != 6 {
		t.Fatalf("merged tick stats %+v, want 6 classified", stats)
	}
	per := c.ShardStats()
	for i, st := range per {
		wantJobs := 0
		if i == loaded {
			wantJobs = len(ids)
		}
		if st.Jobs != wantJobs {
			t.Fatalf("shard %d holds %d jobs, want %d", i, st.Jobs, wantJobs)
		}
		if i != loaded && (st.Samples != 0 || st.Classifications != 0) {
			t.Fatalf("empty shard %d reports activity: %+v", i, st)
		}
	}

	snap := c.Snapshot()
	if len(snap) != len(ids) {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), len(ids))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].JobID < snap[j].JobID }) {
		t.Fatal("merged snapshot is not ID-sorted")
	}
	want := append([]int(nil), ids...)
	sort.Ints(want)
	for i, ji := range snap {
		if ji.JobID != want[i] {
			t.Fatalf("snapshot row %d is job %d, want %d", i, ji.JobID, want[i])
		}
	}
}

// TestMergeAcrossShards spreads jobs over all partitions and checks the
// fan-in: merged TickStats equals the sum of per-partition stats, and the
// monitor-level counters equal the ShardStats sums.
func TestMergeAcrossShards(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	c := newPartitioned(t, scaler, model, 4)
	const jobs = 40
	for j := 0; j < jobs; j++ {
		if j%4 == 3 {
			// Every fourth job stays pending (window not filled).
			if err := c.Ingest(j, servetest.JobSamples(j, 1)[0]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		fill(t, c, j)
	}
	stats, err := c.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != 30 {
		t.Fatalf("merged tick stats %+v, want 30 classified", stats)
	}

	if snap := c.Snapshot(); len(snap) != jobs {
		t.Fatalf("merged snapshot has %d rows, want all %d jobs", len(snap), jobs)
	}

	per := c.ShardStats()
	var jobsSum int
	var samples, classed, ticks, evicted uint64
	for _, st := range per {
		jobsSum += st.Jobs
		samples += st.Samples
		classed += st.Classifications
		ticks += st.Ticks
		evicted += st.Evictions
	}
	if jobsSum != c.NumJobs() || jobsSum != jobs {
		t.Fatalf("per-shard jobs sum %d, NumJobs %d, want %d", jobsSum, c.NumJobs(), jobs)
	}
	if samples != c.SamplesIngested() || classed != c.Classifications() ||
		ticks != c.Ticks() || evicted != c.Evictions() {
		t.Fatalf("ShardStats sums (%d, %d, %d, %d) disagree with core counters (%d, %d, %d, %d)",
			samples, classed, ticks, evicted,
			c.SamplesIngested(), c.Classifications(), c.Ticks(), c.Evictions())
	}

	// End a classified job and evict the idle pending ones: the merged
	// snapshot and counters must reflect both lifecycle paths.
	if _, ok := c.EndJob(0); !ok {
		t.Fatal("EndJob(0) found nothing")
	}
	time.Sleep(2 * time.Millisecond)
	if n := c.EvictIdle(time.Millisecond); n != jobs-1 {
		t.Fatalf("EvictIdle removed %d jobs, want %d", n, jobs-1)
	}
	if got := c.Evictions(); got != uint64(jobs) {
		t.Fatalf("Evictions = %d, want %d", got, jobs)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after full eviction has %d rows", len(snap))
	}
}

// TestMergeWithConcurrentEviction hammers Snapshot and Tick while other
// goroutines end and evict jobs: every merged view must be ID-sorted and
// free of duplicates, whatever the interleaving. Under -race this also
// pins the merge's locking discipline against the eviction paths.
func TestMergeWithConcurrentEviction(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	c := newPartitioned(t, scaler, model, 4)
	const jobs = 64
	for j := 0; j < jobs; j++ {
		fill(t, c, j)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // re-ingest and end jobs in a loop
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			j := (i * 17) % jobs
			c.EndJob(j)
			for _, s := range servetest.JobSamples(j, servetest.Window+1) {
				// Ingest only fails on a wrong sensor count, which these
				// fixtures cannot produce.
				_ = c.Ingest(j, s)
			}
		}
	}()
	go func() { // idle-evict with a cutoff that catches stragglers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.EvictIdle(time.Microsecond)
		}
	}()

	for i := 0; i < 200; i++ {
		snap := c.Snapshot()
		seen := make(map[int]bool, len(snap))
		last := -1
		for _, ji := range snap {
			if ji.JobID <= last {
				t.Fatalf("snapshot out of order or duplicated: job %d after %d", ji.JobID, last)
			}
			if ji.JobID < 0 || ji.JobID >= jobs || seen[ji.JobID] {
				t.Fatalf("snapshot holds unexpected job %d", ji.JobID)
			}
			seen[ji.JobID] = true
			last = ji.JobID
		}
		if _, err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
