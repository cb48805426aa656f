package shard

import (
	"testing"

	"repro/internal/events"
	"repro/internal/trace"
)

// drainEvents empties everything currently buffered on the subscription
// without blocking.
func drainEvents(sub *events.Subscription) []events.Event {
	var out []events.Event
	for {
		select {
		case e := <-sub.Events():
			out = append(out, e)
		default:
			return out
		}
	}
}

// TestCoreEventsSingleSwapAllShards pins the sharded push plane: prediction
// events flow from every shard's tick loop into one shared bus, but a
// fleet-wide SwapClassifier — which installs on N monitors — publishes
// exactly ONE swap event and advances the generation exactly once. The
// per-monitor swap events are muted; only the Core speaks for the fleet.
func TestCoreEventsSingleSwapAllShards(t *testing.T) {
	scaler, model := fixture(t)
	c := newCore(t, scaler, model, 4)
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 4096})
	defer sub.Close()
	c.SetEventSink(bus)
	rec := trace.NewRecorder()
	c.SetTraceRecorder(rec)

	// Enough jobs that splitmix64 routing touches every shard.
	const jobs = 64
	for k := 0; k < jobs; k++ {
		for _, s := range jobSamples(k, testWindow) {
			if err := c.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapClassifierDrift(model, nil); err != nil {
		t.Fatal(err)
	}

	evs := drainEvents(sub)
	var preds, swaps int
	shardsSeen := make(map[int]bool)
	for _, e := range evs {
		switch e.Type {
		case events.TypePrediction:
			preds++
			if e.Gen != 0 {
				t.Fatalf("pre-swap prediction at generation %d: %+v", e.Gen, e)
			}
			shardsSeen[c.ShardOf(*e.Job)] = true
		case events.TypeSwap:
			swaps++
			if e.Gen != 1 {
				t.Fatalf("swap event at generation %d, want 1", e.Gen)
			}
		default:
			t.Fatalf("unexpected event type %q", e.Type)
		}
	}
	if preds != jobs {
		t.Fatalf("prediction events = %d, want %d", preds, jobs)
	}
	if len(shardsSeen) != c.NumShards() {
		t.Fatalf("events arrived from %d shards, want %d", len(shardsSeen), c.NumShards())
	}
	if swaps != 1 {
		t.Fatalf("fleet-wide swap published %d swap events, want exactly 1", swaps)
	}
	if got := bus.Gen(); got != 1 {
		t.Fatalf("bus generation %d after one swap, want 1", got)
	}

	// The shared recorder collected tick stages from the shard loops.
	snap := rec.Snapshot()
	for _, st := range []trace.Stage{trace.StageCollect, trace.StageClassify, trace.StageWriteBack} {
		if snap.Stages[st].Count == 0 {
			t.Fatalf("stage %s recorded no spans", st)
		}
	}
}

// TestCoreEventsEquivalenceBitIdentical pins that attaching the
// observability plane to a sharded core changes no prediction bit.
func TestCoreEventsEquivalenceBitIdentical(t *testing.T) {
	scaler, model := fixture(t)
	plain := newCore(t, scaler, model, 4)
	observed := newCore(t, scaler, model, 4)
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 4096})
	defer sub.Close()
	observed.SetEventSink(bus)
	observed.SetTraceRecorder(trace.NewRecorder())

	const jobs = 48
	const perJob = testWindow*2 + 1
	for k := 0; k < jobs; k++ {
		for _, s := range jobSamples(k, perJob) {
			if err := plain.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
			if err := observed.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := plain.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := observed.Tick(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < jobs; k++ {
		want, ok := plain.Prediction(k)
		if !ok {
			t.Fatalf("job %d: no plain prediction", k)
		}
		got, ok := observed.Prediction(k)
		if !ok {
			t.Fatalf("job %d: no observed prediction", k)
		}
		assertSamePrediction(t, k, got, want)
	}
}
