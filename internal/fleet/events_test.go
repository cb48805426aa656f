package fleet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/events"
	"repro/internal/servetest"
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

// TestEventsEquivalenceBitIdentical pins the observability plane's
// invariant: a monitor with an event bus and a trace recorder attached
// publishes bit-identical Class/Probability/Probs to one without, for
// every job, across ticks mid-stream and window wraparound, at one
// partition and at four, while its recorder sees the tick stages and its
// bus a prediction event for every job. Events and spans describe serving;
// they never participate in it. Rows of the twin table (twin_test.go).
func TestEventsEquivalenceBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		runTwins(t, twinRow{name: fmt.Sprintf("shards=%d", shards),
			a: twinSide{shards: shards, observed: true, tickEvery: 220}, b: twinSide{shards: shards, tickEvery: 220},
			jobs: 40, perJob: servetest.Window*2 + 3, seed: 5})
	}
}

// TestEventsTransitionOnly pins the emission policy: the first
// classification emits (PrevClass absent), a re-score that keeps the class
// emits nothing, and a no-op tick emits nothing — the feed carries
// transitions, not steady state.
func TestEventsTransitionOnly(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 1024})
	defer sub.Close()
	m.SetEventSink(bus)

	const jobs = 10
	for k := 0; k < jobs; k++ {
		for _, s := range servetest.JobSamples(k, servetest.Window) {
			if err := m.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	first := drainEvents(sub)
	if len(first) != jobs {
		t.Fatalf("first tick emitted %d events, want %d", len(first), jobs)
	}
	lastClass := make(map[int]int)
	for _, e := range first {
		if e.Type != events.TypePrediction || e.PrevClass != nil {
			t.Fatalf("first classification event malformed: %+v", e)
		}
		lastClass[*e.Job] = *e.Class
	}

	// A tick with nothing dirty emits nothing.
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if evs := drainEvents(sub); len(evs) != 0 {
		t.Fatalf("no-op tick emitted %d events", len(evs))
	}

	// Re-scores only emit when the class actually changes, and then carry
	// the class they replaced.
	for k := 0; k < jobs; k++ {
		for _, s := range servetest.JobSamples(k+1000, servetest.Window) {
			if err := m.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, e := range drainEvents(sub) {
		if e.Type != events.TypePrediction {
			t.Fatalf("unexpected event type %q", e.Type)
		}
		prev, seen := lastClass[*e.Job]
		if !seen || e.PrevClass == nil || *e.PrevClass != prev {
			t.Fatalf("re-score event carries wrong PrevClass: %+v (want %d)", e, prev)
		}
		if *e.Class == prev {
			t.Fatalf("event emitted for an unchanged class: %+v", e)
		}
	}
}

// TestEventsUnknownTransition pins the open-set feed: the verdict flipping
// to rejected emits exactly one unknown event per job, and staying
// rejected on a later re-score emits nothing new.
func TestEventsUnknownTransition(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	// A maximally strict threshold: everything is rejected, so the first
	// classification is also the false→true verdict transition.
	cal.Threshold.MaxFeatDist = math.SmallestNonzeroFloat64
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Types: []events.Type{events.TypeUnknown}, Buffer: 1024})
	defer sub.Close()
	m.SetEventSink(bus)

	const jobs = 6
	for k := 0; k < jobs; k++ {
		for _, s := range servetest.JobSamples(k, servetest.Window) {
			if err := m.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	unknown := drainEvents(sub)
	if len(unknown) != jobs {
		t.Fatalf("first tick emitted %d unknown events, want %d", len(unknown), jobs)
	}

	// Still rejected after a re-score: no new verdict events.
	for k := 0; k < jobs; k++ {
		for _, s := range servetest.JobSamples(k+500, servetest.Window) {
			if err := m.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if evs := drainEvents(sub); len(evs) != 0 {
		t.Fatalf("unchanged verdicts emitted %d unknown events", len(evs))
	}
}

// TestEventsSwapAdvancesGeneration pins the generation protocol end to
// end: predictions before a hot-swap carry generation 0, the swap emits
// exactly one swap event, and predictions after it carry generation 1.
func TestEventsSwapAdvancesGeneration(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 1024})
	defer sub.Close()
	m.SetEventSink(bus)

	for _, s := range servetest.JobSamples(1, servetest.Window) {
		if err := m.Ingest(1, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := m.SwapClassifierDrift(model, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range servetest.JobSamples(2, servetest.Window) {
		if err := m.Ingest(2, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	evs := drainEvents(sub)
	var swaps int
	for _, e := range evs {
		switch e.Type {
		case events.TypeSwap:
			swaps++
			if e.Gen != 1 || e.Model == "" {
				t.Fatalf("swap event malformed: %+v", e)
			}
		case events.TypePrediction:
			want := uint64(0)
			if *e.Job == 2 {
				want = 1
			}
			if e.Gen != want {
				t.Fatalf("job %d prediction at generation %d, want %d", *e.Job, e.Gen, want)
			}
		default:
			t.Fatalf("unexpected event type %q", e.Type)
		}
	}
	if swaps != 1 {
		t.Fatalf("swap emitted %d swap events, want 1", swaps)
	}
}

// TestCoreEventsSingleSwapAllShards pins the partitioned push plane:
// prediction events flow from every partition's tick into one shared bus,
// but a fleet-wide swap — which installs on every partition — publishes
// exactly ONE swap event and advances the generation exactly once.
func TestCoreEventsSingleSwapAllShards(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	c := newPartitioned(t, scaler, model, 4)
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 4096})
	defer sub.Close()
	c.SetEventSink(bus)
	rec := trace.NewRecorder()
	c.SetTraceRecorder(rec)

	// Enough jobs that splitmix64 routing touches every partition.
	const jobs = 64
	for k := 0; k < jobs; k++ {
		for _, s := range servetest.JobSamples(k, servetest.Window) {
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

	// The shared recorder collected tick stages from every partition.
	snap := rec.Snapshot()
	for _, st := range []trace.Stage{trace.StageCollect, trace.StageClassify, trace.StageWriteBack} {
		if snap.Stages[st].Count == 0 {
			t.Fatalf("stage %s recorded no spans", st)
		}
	}
}
