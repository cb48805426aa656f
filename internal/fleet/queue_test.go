package fleet

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/stream"
)

// The dirty queue's lifecycle: each test below fails on a queue that
// forgets one case — a removed job left in it, a failed tick that drops or
// doubles its batch, an Ingest that races inference, a job queued before
// its window filled.

// tally is a test Observer: the jobs write-back scored since the last take.
type tally struct{ jobs []int }

func (ta *tally) ObserveWindow(o Observation) { ta.jobs = append(ta.jobs, o.Job) }

// take returns the scored jobs in ID order (repeats kept) and resets.
func (ta *tally) take() []int {
	out := append([]int{}, ta.jobs...)
	sort.Ints(out)
	ta.jobs = ta.jobs[:0]
	return out
}

// faulty is a batched classifier with a per-call failure switch and a hook
// that runs while "inference" is in flight — the tick holds no shard lock
// then, so the hook may call back into Ingest/EndJob/EvictIdle.
type faulty struct {
	inner  stream.Classifier
	mode   int    // modeOK, modeErr or modeWide; resets to modeOK after one call
	during func() // runs inside the model call, before it answers
}

const (
	modeOK   = iota
	modeErr  // the model call fails
	modeWide // the model answers one row too many
)

func (f *faulty) PredictProba(x *mat.Matrix) (*mat.Matrix, error) { return f.PredictProbaBatch(x) }

func (f *faulty) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) {
	mode, during := f.mode, f.during
	f.mode, f.during = modeOK, nil
	if during != nil {
		during()
	}
	switch mode {
	case modeErr:
		return nil, errors.New("transient model failure")
	case modeWide:
		return mat.New(x.Rows+1, 4), nil
	}
	return f.inner.PredictProba(x)
}

// queueFixture returns a monitor serving through a faulty model with a
// tally attached.
func queueFixture(t *testing.T, now func() time.Time) (*Monitor, *faulty, *tally) {
	t.Helper()
	scaler, model := fixture(t)
	fm := &faulty{inner: model}
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: fm, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	ta := &tally{}
	m.SetAdaptObserver(ta)
	return m, fm, ta
}

func feed(t *testing.T, m *Monitor, jobID int, samples [][]float64) {
	t.Helper()
	for _, s := range samples {
		if err := m.Ingest(jobID, s); err != nil {
			t.Fatal(err)
		}
	}
}

// wantTick runs one tick and checks what it scored.
func wantTick(t *testing.T, m *Monitor, ta *tally, jobs []int, pending int) {
	t.Helper()
	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if got := ta.take(); !reflect.DeepEqual(got, append([]int{}, jobs...)) {
		t.Fatalf("tick scored jobs %v, want %v", got, jobs)
	}
	if stats.Classified != len(jobs) || stats.Pending != pending {
		t.Fatalf("tick stats %+v, want Classified %d Pending %d", stats, len(jobs), pending)
	}
}

// TestRemovedQueuedJobIsSkipped: a job ended or evicted while queued is not
// scored, and when the same ID re-registers before the next tick it is
// scored exactly once, from the new window.
func TestRemovedQueuedJobIsSkipped(t *testing.T) {
	for _, how := range []string{"EndJob", "EvictIdle"} {
		for _, reregister := range []bool{false, true} {
			clock := time.Unix(1000, 0)
			m, _, ta := queueFixture(t, func() time.Time { return clock })
			feed(t, m, 2, jobSamples(2, testWindow))
			clock = clock.Add(time.Hour)
			feed(t, m, 1, jobSamples(1, testWindow))
			feed(t, m, 3, jobSamples(3, testWindow))

			if how == "EndJob" {
				if _, ok := m.EndJob(2); !ok {
					t.Fatal("EndJob did not find queued job 2")
				}
			} else if n := m.EvictIdle(30 * time.Minute); n != 1 {
				t.Fatalf("EvictIdle removed %d jobs, want only job 2", n)
			}

			want := []int{1, 3}
			again := jobSamples(12, testWindow)
			if reregister {
				feed(t, m, 2, again)
				want = []int{1, 2, 3}
			}
			wantTick(t, m, ta, want, 0)
			wantTick(t, m, ta, []int{}, 0)
			got, ok := m.Prediction(2)
			if ok != reregister {
				t.Fatalf("%s, reregister=%v: job 2 has a prediction: %v", how, reregister, ok)
			}
			if reregister {
				scaler, model := fixture(t)
				assertSamePrediction(t, 2, got, baseline(t, scaler, model, again))
			}
		}
	}
}

// TestFailedTickRequeuesExactlyItsJobs: whichever way a tick fails, the next
// tick scores exactly the jobs the failed one held — each once, also the one
// that took another sample in between — and the one after that scores
// nothing.
func TestFailedTickRequeuesExactlyItsJobs(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5}
	fails := map[string]func(m *Monitor, fm *faulty) (restore func()){
		"model error": func(m *Monitor, fm *faulty) func() { fm.mode = modeErr; return func() {} },
		"row count":   func(m *Monitor, fm *faulty) func() { fm.mode = modeWide; return func() {} },
	}
	// An embedding error on each job in turn: wherever in the drain it
	// strikes, the jobs collected before it and the ones not yet visited
	// all come back.
	for _, j := range jobs {
		fails[fmt.Sprintf("embedding error on job %d", j)] = func(m *Monitor, fm *faulty) func() {
			_, sh := m.stripeFor(j)
			sh.mu.Lock()
			js := sh.jobs[j]
			full := js.emb
			js.emb, _ = stream.NewWindowedEmbedder(testWindow, testSensors, m.scaler)
			sh.mu.Unlock()
			return func() {
				sh.mu.Lock()
				js.emb = full
				sh.mu.Unlock()
			}
		}
	}
	for name, arm := range fails {
		m, fm, ta := queueFixture(t, nil)
		for _, j := range jobs {
			feed(t, m, j, jobSamples(j, testWindow))
		}
		feed(t, m, 9, jobSamples(9, testWindow-1)) // never ready, never queued

		restore := arm(m, fm)
		if _, err := m.Tick(); err == nil {
			t.Fatalf("%s: tick did not fail", name)
		}
		restore()
		if got := ta.take(); len(got) != 0 {
			t.Fatalf("%s: failed tick scored jobs %v", name, got)
		}
		feed(t, m, 4, jobSamples(40, 1)) // already queued: must not queue twice

		wantTick(t, m, ta, jobs, 1)
		wantTick(t, m, ta, []int{}, 1)
	}
}

// TestIngestDuringInferenceRequeues: a sample that lands while the model is
// scoring the job's previous window leaves the job dirty, and the next tick
// scores it — once, with the sample in.
func TestIngestDuringInferenceRequeues(t *testing.T) {
	m, fm, ta := queueFixture(t, nil)
	feed(t, m, 1, jobSamples(1, testWindow))
	feed(t, m, 2, jobSamples(2, testWindow))
	late := jobSamples(1, testWindow+1)
	fm.during = func() { feed(t, m, 1, late[testWindow:]) }

	wantTick(t, m, ta, []int{1, 2}, 0)
	wantTick(t, m, ta, []int{1}, 0)
	wantTick(t, m, ta, []int{}, 0)

	scaler, model := fixture(t)
	got, _ := m.Prediction(1)
	assertSamePrediction(t, 1, got, baseline(t, scaler, model, late))
}

// TestUnreadyJobIsPendingNotQueued: a job is counted in Pending from its
// first sample until its window fills, is queued by the sample that fills
// it and not before, and leaves Pending when it is removed unfilled.
func TestUnreadyJobIsPendingNotQueued(t *testing.T) {
	m, _, ta := queueFixture(t, nil)
	samples := jobSamples(1, testWindow)
	feed(t, m, 1, samples[:testWindow-1])
	feed(t, m, 2, jobSamples(2, 1))
	for _, sh := range m.parts[0].stripes {
		if len(sh.queue) != 0 {
			t.Fatalf("an unfilled job was queued: %d entries", len(sh.queue))
		}
	}
	wantTick(t, m, ta, []int{}, 2)
	feed(t, m, 1, samples[testWindow-1:])
	wantTick(t, m, ta, []int{1}, 1)
	if _, ok := m.EndJob(2); !ok {
		t.Fatal("EndJob did not find job 2")
	}
	wantTick(t, m, ta, []int{}, 0)
	feed(t, m, 3, jobSamples(3, 2))
	if n := m.EvictIdle(0); n != 2 {
		t.Fatalf("EvictIdle(0) removed %d jobs, want 2", n)
	}
	wantTick(t, m, ta, []int{}, 0)
}

// queueSeed replays one model-check sequence: go test -run QueueModelCheck
// -queue.seed=N. Without it the check runs a fixed set of seeds plus one
// drawn from the clock, so repeated runs (-count=20 nightly) keep covering
// new sequences.
var queueSeed = flag.Int64("queue.seed", 0, "replay TestQueueModelCheck with this seed only")

// shadowJob is the oracle's view of one registered job.
type shadowJob struct {
	n     int  // samples since it (re-)registered
	dirty bool // samples since it was last scored
	seen  time.Time
}

// oracle is the reference the queue is checked against: no queue, no
// counters — it finds the jobs a tick must score by scanning every job.
type oracle map[int]*shadowJob

func (o oracle) ingest(id int, now time.Time) {
	if o[id] == nil {
		o[id] = &shadowJob{}
	}
	o[id].n++
	o[id].dirty, o[id].seen = true, now
}

// due lists the jobs a tick scores (ready ∧ dirty, in ID order) and counts
// the ones it reports pending.
func (o oracle) due() (ids []int, pending int) {
	ids = []int{}
	for id, j := range o {
		switch {
		case j.n < testWindow:
			pending++
		case j.dirty:
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, pending
}

// TestQueueModelCheck drives random sequences of Ingest, EndJob, EvictIdle,
// Tick and failing Tick — with more of the first three landing while the
// model call is in flight — against the oracle: every tick scores exactly
// the oracle's due jobs and reports its pending count, a failing tick scores
// nothing and loses nothing.
func TestQueueModelCheck(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, time.Now().UnixNano()}
	if *queueSeed != 0 {
		seeds = []int64{*queueSeed}
	}
	for _, seed := range seeds {
		checkQueueAgainstOracle(t, seed)
	}
}

func checkQueueAgainstOracle(t *testing.T, seed int64) {
	const jobIDs, ops = 12, 600
	rng := rand.New(rand.NewSource(seed))
	clock := time.Unix(1000, 0)
	m, fm, ta := queueFixture(t, func() time.Time { return clock })
	o := oracle{}
	sample := make([]float64, testSensors)

	// mutate applies one random non-tick operation to the monitor and the
	// oracle alike.
	mutate := func(op int) {
		clock = clock.Add(time.Second)
		id := rng.Intn(jobIDs)
		switch r := rng.Intn(100); {
		case r < 80:
			for c := range sample {
				sample[c] = rng.NormFloat64()*2 + 4
			}
			if err := m.Ingest(id, sample); err != nil {
				t.Fatalf("seed %d op %d: ingest: %v", seed, op, err)
			}
			o.ingest(id, clock)
		case r < 92:
			_, ok := m.EndJob(id)
			if _, want := o[id]; ok != want {
				t.Fatalf("seed %d op %d: EndJob(%d) found=%v, oracle has it=%v", seed, op, id, ok, want)
			}
			delete(o, id)
		default:
			idle := time.Duration(rng.Intn(20)) * time.Second
			want := 0
			for id, j := range o {
				if !j.seen.After(clock.Add(-idle)) {
					delete(o, id)
					want++
				}
			}
			if got := m.EvictIdle(idle); got != want {
				t.Fatalf("seed %d op %d: EvictIdle(%v) removed %d, oracle %d", seed, op, idle, got, want)
			}
		}
	}

	for op := 0; op < ops; op++ {
		if rng.Intn(4) != 0 {
			mutate(op)
			continue
		}
		due, pending := o.due()
		mode := []int{modeOK, modeOK, modeErr, modeWide}[rng.Intn(4)]
		racing := rng.Intn(4)
		fm.mode = mode
		fm.during = func() { // only runs when the batch is not empty
			if mode == modeOK {
				for _, id := range due {
					if j := o[id]; j != nil {
						j.dirty = false
					}
				}
			}
			for i := 0; i < racing; i++ {
				mutate(op)
			}
		}
		stats, err := m.Tick()
		fm.mode, fm.during = modeOK, nil
		scored := ta.take()
		if failed := mode != modeOK && len(due) > 0; failed {
			if err == nil || len(scored) != 0 {
				t.Fatalf("seed %d op %d: failing tick returned %v and scored %v", seed, op, err, scored)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d op %d: tick: %v", seed, op, err)
		}
		if !reflect.DeepEqual(scored, due) || stats.Classified != len(due) || stats.Pending != pending {
			t.Fatalf("seed %d op %d: tick scored %v (stats %+v), oracle due %v pending %d",
				seed, op, scored, stats, due, pending)
		}
	}
}
