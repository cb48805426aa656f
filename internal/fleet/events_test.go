package fleet

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

// TestEventsEquivalenceBitIdentical pins the tentpole invariant of the
// observability plane: a monitor with an event bus and a trace recorder
// attached publishes bit-identical Class/Probability/Probs to one without,
// for every job, across multiple ticks and window wraparound. Events and
// spans describe serving; they never participate in it.
func TestEventsEquivalenceBitIdentical(t *testing.T) {
	scaler, model := fixture(t)
	const jobs = 40
	const perJob = testWindow*2 + 3 // past wraparound

	plain, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 4096})
	defer sub.Close()
	observed.SetEventSink(bus)
	rec := trace.NewRecorder()
	observed.SetTraceRecorder(rec)

	// Interleave ticks mid-stream on both sides so write-back runs against
	// partially filled and already-classified jobs alike.
	for round := 0; round < 3; round++ {
		for k := 0; k < jobs; k++ {
			samples := jobSamples(k, perJob)
			lo, hi := round*perJob/3, (round+1)*perJob/3
			for _, s := range samples[lo:hi] {
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

	// The recorder saw the serving stages: one observation per non-empty
	// tick for collect/classify/write-back, none for the HTTP-side stages
	// this package never runs.
	snap := rec.Snapshot()
	for _, st := range []trace.Stage{trace.StageCollect, trace.StageClassify, trace.StageWriteBack} {
		if snap.Stages[st].Count == 0 {
			t.Fatalf("stage %s recorded no spans", st)
		}
	}
	if n := snap.Stages[trace.StageParse].Count; n != 0 {
		t.Fatalf("parse stage recorded %d spans with no HTTP layer", n)
	}
	if len(snap.Spans) == 0 {
		t.Fatal("span ring is empty after three observed ticks")
	}

	// And events flowed: at least one prediction event per job (the first
	// classification is always a transition).
	evs := drainEvents(sub)
	perJobCount := make(map[int]int)
	for _, e := range evs {
		if e.Type != events.TypePrediction {
			t.Fatalf("unexpected event type %q with no swaps or drift", e.Type)
		}
		perJobCount[*e.Job]++
	}
	if len(perJobCount) != jobs {
		t.Fatalf("prediction events covered %d jobs, want %d", len(perJobCount), jobs)
	}
}

// TestEventsTransitionOnly pins the emission policy: the first
// classification emits (PrevClass absent), a re-score that keeps the class
// emits nothing, and a no-op tick emits nothing — the feed carries
// transitions, not steady state.
func TestEventsTransitionOnly(t *testing.T) {
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 1024})
	defer sub.Close()
	m.SetEventSink(bus)

	const jobs = 10
	for k := 0; k < jobs; k++ {
		for _, s := range jobSamples(k, testWindow) {
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
		for _, s := range jobSamples(k+1000, testWindow) {
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
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)
	// A maximally strict threshold: everything is rejected, so the first
	// classification is also the false→true verdict transition.
	cal.Threshold.MinConf = 2
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Types: []events.Type{events.TypeUnknown}, Buffer: 1024})
	defer sub.Close()
	m.SetEventSink(bus)

	const jobs = 6
	for k := 0; k < jobs; k++ {
		for _, s := range jobSamples(k, testWindow) {
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
		for _, s := range jobSamples(k+500, testWindow) {
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
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Buffer: 1024})
	defer sub.Close()
	m.SetEventSink(bus)

	for _, s := range jobSamples(1, testWindow) {
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
	for _, s := range jobSamples(2, testWindow) {
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
