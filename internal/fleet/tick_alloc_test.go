package fleet

import (
	"testing"

	"repro/internal/events"
	"repro/internal/trace"
)

// discard is an Observer that keeps nothing, so the gate counts the tick's
// allocations only.
type discard struct{}

func (discard) ObserveWindow(Observation) {}

// TestTickCostFollowsDirtyNotResident gates the tick's allocation profile
// in the configuration wccserve runs (drift, events, trace and an observer
// attached): a tick that scores two jobs allocates the same at 100 resident
// jobs as at 10 000, and a tick with nothing dirty allocates nothing and
// publishes no span.
func TestTickCostFollowsDirtyNotResident(t *testing.T) {
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)
	sample := jobSamples(0, 1)[0]

	perTick := map[int]float64{}
	for _, resident := range []int{100, 10000} {
		m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Drift: cal})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		m.SetTraceRecorder(rec)
		m.SetEventSink(events.NewBus())
		m.SetAdaptObserver(discard{})
		for j := 0; j < resident; j++ {
			for i := 0; i < testWindow; i++ {
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

		perTick[resident] = testing.AllocsPerRun(100, func() {
			for _, j := range []int{3, 71} {
				if err := m.Ingest(j, sample); err != nil {
					t.Error(err)
				}
			}
			if stats, err := m.Tick(); err != nil || stats.Classified != 2 {
				t.Errorf("2-dirty tick %+v, %v", stats, err)
			}
		})
	}
	if perTick[100] != perTick[10000] || perTick[100] == 0 {
		t.Fatalf("a 2-dirty tick allocates %.1f times at 100 resident jobs and %.1f at 10 000, want equal",
			perTick[100], perTick[10000])
	}
}
