package shard

import (
	"testing"

	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// discard is an Observer that keeps nothing, so the gate counts the tick's
// allocations only.
type discard struct{}

func (discard) ObserveWindow(fleet.Observation) {}

// TestOnePartitionIdleTickAllocatesNothing is fleet's
// TestTickCostFollowsDirtyNotResident gate taken through this package's
// constructor, the way the benchmark's tick workloads build their core
// (Shards: 1, drift, events, trace and an observer attached): a whole-fleet
// Tick with nothing dirty stays on the caller — no result slices, no
// goroutine — so it allocates nothing. (It lives here and not in
// internal/fleet/tick_alloc_test.go because that file is in package fleet,
// which this package imports.)
func TestOnePartitionIdleTickAllocatesNothing(t *testing.T) {
	scaler, model := fixture(t)
	c, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler,
		Model: model, Shards: 1, Drift: shardTestCalibration(t, model)})
	if err != nil {
		t.Fatal(err)
	}
	c.SetTraceRecorder(trace.NewRecorder())
	c.SetEventSink(events.NewBus())
	c.SetAdaptObserver(discard{})
	const jobs = 100
	for j := 0; j < jobs; j++ {
		fill(t, c, j)
	}
	if stats, err := c.Tick(); err != nil || stats.Classified != jobs {
		t.Fatalf("first tick %+v, %v", stats, err)
	}
	if idle := testing.AllocsPerRun(100, func() {
		if stats, err := c.Tick(); err != nil || stats.Classified != 0 {
			t.Errorf("idle tick %+v, %v", stats, err)
		}
	}); idle != 0 {
		t.Fatalf("an idle Tick on a one-partition core allocates %.1f times, want 0", idle)
	}
}
