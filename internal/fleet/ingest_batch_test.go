package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/servetest"
)

// TestEquivalenceIngestBatchMatchesIngest pins IngestBatch to Ingest: the
// same interleaved job streams, with wrong-width, NaN and ±1e13 lines mixed
// in, go through one monitor one sample at a time and through another in
// random batch splits, under the same injected clock. After every batch
// both refuse the same samples (each under its own index in the batch,
// with the same error) and hold the same stripe queues in the same order;
// after every tick they publish the same predictions, and at the end the
// same snapshot, drift statistics and per-partition counters.
func TestEquivalenceIngestBatchMatchesIngest(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			checkBatchAgainstIngest(t, shards, seed)
		}
	}
}

func checkBatchAgainstIngest(t *testing.T, shards int, seed int64) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	clock := time.Unix(1000, 0)
	newMonitor := func() *Monitor {
		m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler,
			Model: model, Shards: shards, Drift: cal, Now: func() time.Time { return clock }})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	one, batched := newMonitor(), newMonitor()
	rng := rand.New(rand.NewSource(seed))
	lines := batchStreams(rng, 24, 2*servetest.Window+5)

	var b Batch
	for lo, round := 0, 0; lo < len(lines); round++ {
		hi := min(len(lines), lo+1+rng.Intn(90))
		want := map[int]string{}
		for i, s := range lines[lo:hi] {
			if err := one.Ingest(s.Job, s.Values); err != nil {
				want[i] = err.Error()
			}
		}
		b.Samples = append(b.Samples[:0], lines[lo:hi]...)
		got := map[int]string{}
		for _, e := range batched.IngestBatch(&b) {
			if _, dup := got[e.Index]; dup {
				t.Fatalf("shards %d seed %d round %d: sample %d refused twice", shards, seed, round, e.Index)
			}
			got[e.Index] = e.Err.Error()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards %d seed %d round %d: IngestBatch refused %v, Ingest %v", shards, seed, round, got, want)
		}
		if q1, qb := queueOrder(one), queueOrder(batched); !reflect.DeepEqual(q1, qb) {
			t.Fatalf("shards %d seed %d round %d: stripe queues %v after Ingest, %v after IngestBatch",
				shards, seed, round, q1, qb)
		}
		if rng.Intn(3) == 0 {
			compareAfterTick(t, one, batched)
		}
		clock = clock.Add(time.Second)
		lo = hi
	}
	if scored := compareAfterTick(t, one, batched); scored == 0 {
		t.Fatalf("shards %d seed %d: no job was ever scored", shards, seed)
	}
	if d1, db := one.DriftStats(), batched.DriftStats(); !reflect.DeepEqual(d1, db) || d1.Samples == 0 {
		t.Fatalf("shards %d seed %d: drift stats %+v after Ingest, %+v after IngestBatch", shards, seed, d1, db)
	}
	if s1, sb := one.ShardStats(), batched.ShardStats(); !reflect.DeepEqual(s1, sb) {
		t.Fatalf("shards %d seed %d: shard stats %+v after Ingest, %+v after IngestBatch", shards, seed, s1, sb)
	}
}

// batchStreams interleaves the servetest streams of the given jobs in a
// random merge that keeps each job's order, and mixes in about one refused
// line in twelve: too few values, too many, a NaN, or ±1e13.
func batchStreams(rng *rand.Rand, jobs, perJob int) []Sample {
	streams := make([][][]float64, jobs)
	for j := range streams {
		streams[j] = servetest.JobSamples(j, perJob)
	}
	var out []Sample
	for left := jobs * perJob; left > 0; {
		j := rng.Intn(jobs)
		if len(streams[j]) == 0 {
			continue
		}
		if rng.Intn(12) == 0 {
			bad := append([]float64(nil), streams[j][0]...)
			switch rng.Intn(5) {
			case 0:
				bad = bad[:len(bad)-1]
			case 1:
				bad = append(bad, 1)
			case 2:
				bad[rng.Intn(len(bad))] = math.NaN()
			case 3:
				bad[rng.Intn(len(bad))] = 1e13
			default:
				bad[rng.Intn(len(bad))] = -1e13
			}
			out = append(out, Sample{Job: j, Values: bad})
		}
		out = append(out, Sample{Job: j, Values: streams[j][0]})
		streams[j] = streams[j][1:]
		left--
	}
	return out
}

// queueOrder lists every stripe's dirty queue, partition by partition.
func queueOrder(m *Monitor) [][]int {
	var out [][]int
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) {
			ids := []int{}
			for _, js := range st.queue {
				ids = append(ids, js.id)
			}
			out = append(out, ids)
		})
	}
	return out
}

// compareAfterTick ticks both monitors, requires the same batch height and
// the same snapshot, predictions included, and returns how many jobs carry
// a prediction.
func compareAfterTick(t *testing.T, a, b *Monitor) int {
	t.Helper()
	sa, errA := a.Tick()
	sb, errB := b.Tick()
	if errA != nil || errB != nil || sa != sb {
		t.Fatalf("ticks %+v, %v and %+v, %v", sa, errA, sb, errB)
	}
	snapA, snapB := a.Snapshot(), b.Snapshot()
	if !reflect.DeepEqual(snapA, snapB) {
		t.Fatalf("snapshots differ after a tick:\n%+v\n%+v", snapA, snapB)
	}
	scored := 0
	for _, ji := range snapA {
		if ji.Pred != nil {
			scored++
		}
	}
	return scored
}
