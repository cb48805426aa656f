package fleet

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/servetest"
	"repro/internal/trace"
)

// discard is an Observer that keeps nothing, so the gate counts the tick's
// allocations only.
type discard struct{}

func (discard) ObserveWindow(Observation) {}

// TestTickCostFollowsDirtyNotResident gates the tick's allocation profile
// in the configuration wccserve runs (drift, events, trace and an observer
// attached), at 100 and at 10 000 resident jobs: a tick with nothing dirty
// allocates nothing and publishes no span, and once every job has been
// scored, a tick of 2 rows and a tick of 30 allocate nothing either. Both
// batches are one row block, so the model call and the drift pass run on
// the caller with no closure; the model writes into the partition's scratch
// and each job's prediction is overwritten in place. A constant stream
// keeps every window, and so every verdict, fixed, so no tick publishes a
// transition event.
func TestTickCostFollowsDirtyNotResident(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	sample := servetest.JobSamples(0, 1)[0]

	for _, resident := range []int{100, 10000} {
		m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		m.SetTraceRecorder(rec)
		m.SetEventSink(events.NewBus())
		m.SetAdaptObserver(discard{})
		for j := 0; j < resident; j++ {
			for i := 0; i < servetest.Window; i++ {
				if err := m.Ingest(j, sample); err != nil {
					t.Fatal(err)
				}
			}
		}
		if stats, err := m.Tick(); err != nil || stats.Classified != resident {
			t.Fatalf("%d resident: first tick %+v, %v", resident, stats, err)
		}

		spans := rec.Snapshot().Stages[trace.StageCollect].Count
		if idle := testing.AllocsPerRun(100, func() {
			if stats, err := m.Tick(); err != nil || stats.Classified != 0 {
				t.Errorf("idle tick %+v, %v", stats, err)
			}
		}); idle != 0 {
			t.Fatalf("%d resident: a tick with nothing dirty allocates %.1f times, want 0", resident, idle)
		}
		if got := rec.Snapshot().Stages[trace.StageCollect].Count; got != spans {
			t.Fatalf("%d resident: idle ticks published %d collect spans", resident, got-spans)
		}

		tick := func(jobs []int) float64 {
			return testing.AllocsPerRun(100, func() {
				for _, j := range jobs {
					if err := m.Ingest(j, sample); err != nil {
						t.Error(err)
					}
				}
				if stats, err := m.Tick(); err != nil || stats.Classified != len(jobs) {
					t.Errorf("%d-dirty tick %+v, %v", len(jobs), stats, err)
				}
			})
		}
		wide := make([]int, 30)
		for k := range wide {
			wide[k] = 2 * k
		}
		for _, jobs := range [][]int{{3, 71}, wide} {
			if allocs := tick(jobs); allocs != 0 {
				t.Fatalf("%d resident: a steady %d-row tick allocates %.1f times, want 0", resident, len(jobs), allocs)
			}
		}
	}
}

// TestOnePartitionIdleTickAllocatesNothing pins the idle tick of a monitor
// that asks for one partition explicitly (Shards: 1, as wccserve's
// -shards 1 does), with drift, events, trace and an observer attached and
// every job's window wrapped: with nothing dirty the tick does no
// collection, no batch and no event publishing, so it allocates nothing,
// and it takes no stripe lock: it returns while another goroutine holds
// every stripe's mutex.
func TestOnePartitionIdleTickAllocatesNothing(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler,
		Model: model, Shards: 1, Drift: servetest.Calibration(t, 31, 400)})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraceRecorder(trace.NewRecorder())
	m.SetEventSink(events.NewBus())
	m.SetAdaptObserver(discard{})
	const jobs = 100
	for j := 0; j < jobs; j++ {
		fill(t, m, j)
	}
	if stats, err := m.Tick(); err != nil || stats.Classified != jobs {
		t.Fatalf("first tick %+v, %v", stats, err)
	}
	if idle := testing.AllocsPerRun(100, func() {
		if stats, err := m.Tick(); err != nil || stats.Classified != 0 {
			t.Errorf("idle tick %+v, %v", stats, err)
		}
	}); idle != 0 {
		t.Fatalf("an idle Tick on a one-partition monitor allocates %.1f times, want 0", idle)
	}

	for _, st := range m.parts[0].stripes {
		st.mu.Lock()
		defer st.mu.Unlock()
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Tick()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an idle Tick waited on a stripe lock")
	}
}
