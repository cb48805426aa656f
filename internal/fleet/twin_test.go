package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/servetest"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The fleet's twin table. Every serving axis that must not move a
// prediction bit — partitioning, drift scoring, the observability plane,
// batch ingest, tick cadence, concurrent ingest — is a row: two monitors, A
// and B, built from servetest under one injected clock, fed one seeded
// stream with refused lines mixed in, and compared on every read surface.
// A new axis is a new row or a new twinSide field, not a new two-monitor
// test.

// twinSide configures one monitor of a twin row.
type twinSide struct {
	shards int
	// drift installs the calibration; observed attaches an event bus and a
	// trace recorder.
	drift, observed bool
	// batch feeds through IngestBatch in random splits; otherwise one Ingest
	// call a line.
	batch bool
	// tickEvery ticks the whole fleet at the end of the first chunk past
	// each multiple of tickEvery lines; 0 ticks only at the end.
	tickEvery int
	// race feeds every job from its own goroutine while one TickShard loop
	// per partition runs, then ticks once at the end.
	race bool
}

// twinRow is one row of the table: its two sides, the stream's shape and
// its seed.
type twinRow struct {
	name         string
	a, b         twinSide
	jobs, perJob int
	seed         int64
}

// twinMonitor is one side of a row while it runs.
type twinMonitor struct {
	twinSide
	name    string
	m       *Monitor
	sub     *events.Subscription
	rec     *trace.Recorder
	b       Batch
	mu      sync.Mutex
	refused map[int]string
}

// runTwins runs each row, as a subtest when it has a name.
func runTwins(t *testing.T, rows ...twinRow) {
	for _, row := range rows {
		if row.name == "" {
			runTwin(t, row)
			continue
		}
		t.Run(row.name, func(t *testing.T) { runTwin(t, row) })
	}
}

// runTwin feeds both sides the row's stream in lockstep chunks — one chunk
// when a side races — and checks after every chunk that the refusals, the
// registry and, where the sides tick alike, the stripe queues and every
// shared tick's output agree. Then it ticks both and compares every read
// surface once (checkTwinEnd).
func runTwin(t *testing.T, row twinRow) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	clock := time.Unix(1000, 0)
	sides := [2]*twinMonitor{{twinSide: row.a, name: "A"}, {twinSide: row.b, name: "B"}}
	for _, s := range sides {
		cfg := Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
			Shards: s.shards, Now: func() time.Time { return clock }}
		if s.drift {
			cfg.Drift = cal
		}
		var err error
		if s.m, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		if s.observed {
			bus := events.NewBus()
			s.sub = bus.Subscribe(events.SubOptions{Buffer: 1 << 14})
			t.Cleanup(s.sub.Close)
			s.m.SetEventSink(bus)
			s.rec = trace.NewRecorder()
			s.m.SetTraceRecorder(s.rec)
		}
		s.refused = map[int]string{}
	}
	a, b := sides[0], sides[1]
	same := a.tickEvery == b.tickEvery && !a.race && !b.race
	sameParts := same && a.shards == b.shards

	rng := rand.New(rand.NewSource(row.seed))
	lines, bad := servetest.Interleave(rng, servetest.JobStreams(row.jobs, row.perJob))
	jobs, accepted := map[int]bool{}, 0
	for lo := 0; lo < len(lines); {
		hi := min(len(lines), lo+1+rng.Intn(90))
		if a.race || b.race {
			hi = len(lines)
		}
		for _, s := range sides {
			s.feed(t, lines, lo, hi, row.seed)
		}
		for i := lo; i < hi; i++ {
			ea, refusedA := a.refused[i]
			eb, refusedB := b.refused[i]
			if refusedA != bad[i] || refusedB != bad[i] || ea != eb {
				t.Fatalf("line %d (bad %v): A refused it %v (%q), B %v (%q)", i, bad[i], refusedA, ea, refusedB, eb)
			}
			if !bad[i] {
				jobs[lines[i].Job] = true
				accepted++
			}
		}
		for _, s := range sides {
			if s.m.NumJobs() != len(jobs) || s.m.SamplesIngested() != uint64(accepted) {
				t.Fatalf("%s after line %d: %d jobs and %d samples, want %d and %d: a refused line registered or counted",
					s, hi, s.m.NumJobs(), s.m.SamplesIngested(), len(jobs), accepted)
			}
		}
		var stats [2]TickStats
		ticked := [2]bool{}
		for k, s := range sides {
			if s.tickEvery > 0 && hi/s.tickEvery > lo/s.tickEvery {
				var err error
				if stats[k], err = s.m.Tick(); err != nil {
					t.Fatal(err)
				}
				ticked[k] = true
			}
		}
		if same && ticked[0] {
			if stats[0] != stats[1] {
				t.Fatalf("after line %d: ticks %+v and %+v", hi, stats[0], stats[1])
			}
			if sa, sb := twinSnapshot(a, b), twinSnapshot(b, a); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("after line %d: snapshots differ after a tick:\n%+v\n%+v", hi, sa, sb)
			}
		}
		if sameParts {
			if qa, qb := queueOrder(a.m), queueOrder(b.m); !reflect.DeepEqual(qa, qb) {
				t.Fatalf("after line %d: stripe queues %v on A, %v on B", hi, qa, qb)
			}
		}
		clock = clock.Add(time.Second)
		lo = hi
	}
	for _, s := range sides {
		if _, err := s.m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	checkTwinEnd(t, row, cal, a, b, same, sameParts)
}

func (s *twinMonitor) String() string { return fmt.Sprintf("side %s %+v", s.name, s.twinSide) }

// feed sends the stream's lines lo to hi to the side's monitor and records
// each refusal under its stream index.
func (s *twinMonitor) feed(t *testing.T, lines []servetest.Line, lo, hi int, seed int64) {
	perJob, idx := map[int][]int{}, make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		perJob[lines[i].Job] = append(perJob[lines[i].Job], i)
		idx = append(idx, i)
	}
	if !s.race {
		s.ingest(t, &s.b, lines, idx)
		return
	}
	stop, loops := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(loops)
		runTicks(t, s.m, stop, 100*time.Microsecond)
	}()
	var wg sync.WaitGroup
	for job, idx := range perJob {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Batch
			rng := rand.New(rand.NewSource(seed + int64(job)))
			for lo := 0; lo < len(idx); {
				hi := min(len(idx), lo+1+rng.Intn(90))
				s.ingest(t, &b, lines, idx[lo:hi])
				lo = hi
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-loops
	if t.Failed() {
		t.FailNow()
	}
}

// ingest feeds the stream's lines at idx in order, in one IngestBatch call
// through b or one Ingest call a line.
func (s *twinMonitor) ingest(t *testing.T, b *Batch, lines []servetest.Line, idx []int) {
	if !s.batch {
		for _, i := range idx {
			if err := s.m.Ingest(lines[i].Job, lines[i].Values); err != nil {
				s.refuse(t, i, err)
			}
		}
		return
	}
	b.Samples = b.Samples[:0]
	for _, i := range idx {
		b.Samples = append(b.Samples, Sample(lines[i]))
	}
	for _, e := range s.m.IngestBatch(b) {
		if e.Index < 0 || e.Index >= len(idx) {
			t.Errorf("%s: refusal index %d outside a %d-sample batch", s, e.Index, len(idx))
			continue
		}
		s.refuse(t, idx[e.Index], e.Err)
	}
}

func (s *twinMonitor) refuse(t *testing.T, i int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.refused[i]; dup {
		t.Errorf("%s: line %d refused twice", s, i)
	}
	s.refused[i] = err.Error()
}

// twinSnapshot is s's snapshot, without the open-set annotation when the
// other side carries no calibration.
func twinSnapshot(s, other *twinMonitor) []JobInfo {
	snap := s.m.Snapshot()
	if s.drift && !other.drift {
		for _, ji := range snap {
			if ji.Pred != nil {
				ji.Pred.Open = nil
			}
		}
	}
	return snap
}

// checkTwinEnd compares both ticked sides on every read surface, and holds
// each side alone to what its own configuration promises.
func checkTwinEnd(t *testing.T, row twinRow, cal *drift.Calibration, a, b *twinMonitor, same, sameParts bool) {
	if sa, sb := twinSnapshot(a, b), twinSnapshot(b, a); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("final snapshots differ:\n%+v\n%+v", sa, sb)
	}
	if same && a.m.Classifications() != b.m.Classifications() {
		t.Fatalf("classifications: A %d, B %d", a.m.Classifications(), b.m.Classifications())
	}
	if sameParts && !reflect.DeepEqual(a.m.ShardStats(), b.m.ShardStats()) {
		t.Fatalf("shard stats: A %+v, B %+v", a.m.ShardStats(), b.m.ShardStats())
	}
	var binned uint64
	for k := 0; k < row.jobs; k++ {
		binned += servetest.DriftBinned(k, row.perJob)
		pa, okA := a.m.Prediction(k)
		pb, okB := b.m.Prediction(k)
		if !okA || !okB {
			t.Fatalf("job %d: prediction on A %v, on B %v", k, okA, okB)
		}
		servetest.AssertSamePrediction(t, k, pa, pb)
		if a.drift && b.drift && *pa.Open != *pb.Open {
			t.Fatalf("job %d: annotations differ: A %+v, B %+v", k, pa.Open, pb.Open)
		}
		checkOpen(t, a, cal, k, pa)
		checkOpen(t, b, cal, k, pb)
	}
	for _, s := range []*twinMonitor{a, b} {
		checkDriftStats(t, s, binned)
		if s.observed {
			checkObserved(t, s, row.jobs)
		}
	}
	if a.drift && b.drift {
		da, db := a.m.DriftStats(), b.m.DriftStats()
		if !same { // a cadence re-scores jobs a different number of times
			da.Unknowns, db.Unknowns = 0, 0
		}
		if !reflect.DeepEqual(da, db) || math.Float64bits(da.Score) != math.Float64bits(db.Score) {
			t.Fatalf("drift stats: A %+v, B %+v", da, db)
		}
		for c := range da.SensorPSI {
			if math.Float64bits(da.SensorPSI[c]) != math.Float64bits(db.SensorPSI[c]) {
				t.Fatalf("sensor %d PSI: A %v, B %v (not bit-identical)", c, da.SensorPSI[c], db.SensorPSI[c])
			}
		}
	}
}

// checkOpen holds job k's prediction on s to s's calibration: no
// annotation without one; with one, a positive distance the gate's verdict
// agrees with, and the retired scores at zero.
func checkOpen(t *testing.T, s *twinMonitor, cal *drift.Calibration, k int, p *stream.Prediction) {
	switch o := p.Open; {
	case !s.drift && o != nil:
		t.Fatalf("%s: job %d carries an annotation without a calibration: %+v", s, k, o)
	case !s.drift:
	case o == nil:
		t.Fatalf("%s: job %d lacks the open-set annotation", s, k)
	case o.Rejected != cal.Threshold.Reject(drift.Score{FeatDist: o.FeatDist}):
		t.Fatalf("%s: job %d: annotation %+v disagrees with the gate", s, k, o)
	case o.Margin != 0 || o.Energy != 0:
		t.Fatalf("%s: job %d: retired scores margin %v, energy %v; want 0", s, k, o.Margin, o.Energy)
	case o.FeatDist <= 0:
		t.Fatalf("%s: job %d: feature gate inactive (distance %v)", s, k, o.FeatDist)
	}
}

// checkDriftStats holds s's drift statistics to its calibration: zero
// without one; with one, exactly the binned samples of the accepted lines
// (binned of them all), one PSI per sensor.
func checkDriftStats(t *testing.T, s *twinMonitor, binned uint64) {
	st := s.m.DriftStats()
	if !s.drift {
		if !reflect.DeepEqual(st, DriftStats{}) {
			t.Fatalf("%s: drift stats without a calibration: %+v", s, st)
		}
		return
	}
	if !st.Enabled || st.Samples != binned || binned == 0 || len(st.SensorPSI) != servetest.Sensors {
		t.Fatalf("%s: drift stats %+v, want %d binned samples over %d sensors", s, st, binned, servetest.Sensors)
	}
}

// checkObserved holds an observed side's recorder and bus to what its ticks
// did: spans for collect, classify and write-back and none for parse, which
// only the HTTP layer runs, and prediction events (unknown ones too, with a
// calibration) covering every job.
func checkObserved(t *testing.T, s *twinMonitor, jobs int) {
	snap := s.rec.Snapshot()
	for _, st := range []trace.Stage{trace.StageCollect, trace.StageClassify, trace.StageWriteBack} {
		if snap.Stages[st].Count == 0 {
			t.Fatalf("%s: stage %s recorded no spans", s, st)
		}
	}
	if n := snap.Stages[trace.StageParse].Count; n != 0 || len(snap.Spans) == 0 {
		t.Fatalf("%s: %d parse spans with no HTTP layer, %d spans in the ring", s, n, len(snap.Spans))
	}
	covered := map[int]bool{}
	for _, e := range drainEvents(s.sub) {
		switch {
		case e.Type == events.TypePrediction:
			covered[*e.Job] = true
		case e.Type == events.TypeUnknown && s.drift:
		default:
			t.Fatalf("%s: unexpected event type %q with no swaps", s, e.Type)
		}
	}
	if len(covered) != jobs {
		t.Fatalf("%s: prediction events covered %d jobs, want %d", s, len(covered), jobs)
	}
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
