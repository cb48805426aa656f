package adapt

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/mat"
)

// stubModel always predicts one class with full probability. The embedded
// nil interface stands in for the rest of artifact.Model, which the manager
// never calls.
type stubModel struct {
	artifact.Model
	class, classes int
}

func (s stubModel) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	p := mat.New(x.Rows, s.classes)
	for i := 0; i < x.Rows; i++ {
		p.Data[i*s.classes+s.class] = 1
	}
	return p, nil
}

// stubTrainer hands back a canned artifact (and can run a hook mid-train,
// to simulate a model swap landing while training).
type stubTrainer struct {
	a       *artifact.Artifact
	err     error
	midway  func()
	trained int
}

func (s *stubTrainer) Train(fams []Family) (*artifact.Artifact, error) {
	s.trained++
	if s.midway != nil {
		s.midway()
	}
	return s.a, s.err
}

func stubArtifact(class int) *artifact.Artifact {
	return &artifact.Artifact{
		Meta:  artifact.Metadata{ClassNames: []string{"a", "b", "c", "d", "novel-0"}, NovelClasses: 1},
		Model: stubModel{class: class, classes: 5},
	}
}

func testManager(t *testing.T, tr Trainer, promote func(*artifact.Artifact) error, sink events.Sink) *Manager {
	t.Helper()
	m, err := New(Config{
		FeatureDim:       2,
		Capacity:         64,
		MinSupport:       5,
		Radius:           10,
		Trainer:          tr,
		ShadowMinWindows: 10,
		GateAgreement:    0.8,
		Promote:          promote,
		Events:           sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func observe(m *Manager, gen uint64, class int, rejected bool, f0, f1 float64) {
	m.ObserveWindow(fleet.Observation{Job: 0, Class: class, Rejected: rejected, Gen: gen, Features: []float64{f0, f1}})
}

// fillBuffer feeds n rejected windows clustered around one point.
func fillBuffer(m *Manager, gen uint64, n int) {
	for i := 0; i < n; i++ {
		observe(m, gen, 0, true, 50+float64(i%3), 50)
	}
}

func TestManagerLifecycleToPromotion(t *testing.T) {
	var promoted *artifact.Artifact
	bus := events.NewBus()
	sub := bus.Subscribe(events.SubOptions{Types: []events.Type{events.TypeAdapt}, Buffer: 64})
	defer sub.Close()
	tr := &stubTrainer{a: stubArtifact(0)}
	m := testManager(t, tr, func(a *artifact.Artifact) error { promoted = a; return nil }, bus)

	if st := m.Status(); st.Phase != PhaseBuffer || st.Buffered != 0 {
		t.Fatalf("fresh manager: %+v", st)
	}
	if err := m.BuildCandidate(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("empty buffer built a candidate: %v", err)
	}

	fillBuffer(m, 0, 6)
	if st := m.Status(); st.Buffered != 6 || st.Observed != 6 {
		t.Fatalf("after buffering: %+v", st)
	}
	if err := m.BuildCandidate(); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.Phase != PhaseShadow || st.Candidate == nil || len(st.Families) != 1 {
		t.Fatalf("after build: %+v", st)
	}
	if st.Candidate.Novel != 1 || st.Candidate.Classes != 5 {
		t.Fatalf("candidate info: %+v", st.Candidate)
	}
	if err := m.BuildCandidate(); !errors.Is(err, ErrBusy) {
		t.Fatalf("rebuild during shadow: %v", err)
	}
	if m.GateReady() {
		t.Fatal("gate open with zero shadow windows")
	}

	// Shadow traffic: 15 serving-accepted class-0 windows the stub agrees
	// with, plus 5 rejected ones (the unknown rate the candidate closes —
	// the stub never rejects, having no calibration).
	for i := 0; i < 15; i++ {
		observe(m, 0, 0, false, 1, 1)
	}
	for i := 0; i < 5; i++ {
		observe(m, 0, 0, true, 60, 60)
	}
	st = m.Status()
	if st.Shadow == nil || st.Shadow.Windows != 20 || st.Shadow.Compared != 15 {
		t.Fatalf("shadow stats: %+v", st.Shadow)
	}
	if st.Shadow.Agreement != 1 {
		t.Fatalf("agreement %v, want 1", st.Shadow.Agreement)
	}
	if !st.GateReady {
		t.Fatalf("gate closed on a perfect candidate: %+v", st.Shadow)
	}
	if err := m.PromoteIfReady(); err != nil {
		t.Fatal(err)
	}
	if promoted != tr.a {
		t.Fatal("promotion hook did not receive the candidate artifact")
	}
	st = m.Status()
	if st.Phase != PhasePromoted || st.Promotions != 1 || st.Candidate != nil {
		t.Fatalf("after promotion: %+v", st)
	}

	// The swap the promotion triggered advances the generation; the next
	// observed window restarts the cycle against the new model.
	observe(m, 1, 4, false, 1, 1)
	st = m.Status()
	if st.Phase != PhaseBuffer || st.Buffered != 0 || st.Gen != 1 {
		t.Fatalf("after generation change: %+v", st)
	}

	var phases []string
	for {
		select {
		case e := <-sub.Events():
			phases = append(phases, e.Phase)
			continue
		default:
		}
		break
	}
	want := []string{"candidate", "shadow", "promoted"}
	if len(phases) != len(want) {
		t.Fatalf("lifecycle events %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("lifecycle events %v, want %v", phases, want)
		}
	}
}

func TestManagerGateFailsClosed(t *testing.T) {
	arm := func(t *testing.T, class int) *Manager {
		m := testManager(t, &stubTrainer{a: stubArtifact(class)}, nil, nil)
		fillBuffer(m, 0, 6)
		if err := m.BuildCandidate(); err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("all rejected traffic", func(t *testing.T) {
		// Every window rejected: Compared stays 0 and the gate must not
		// divide by — or promote on — the empty denominator.
		m := arm(t, 0)
		for i := 0; i < 25; i++ {
			observe(m, 0, 0, true, 60, 60)
		}
		st := m.Status()
		if st.Shadow.Compared != 0 || st.Shadow.Agreement != 0 {
			t.Fatalf("shadow stats: %+v", st.Shadow)
		}
		if st.GateReady {
			t.Fatal("gate open on all-rejected traffic")
		}
		if err := m.PromoteIfReady(); !errors.Is(err, ErrGate) {
			t.Fatalf("PromoteIfReady: %v", err)
		}
	})

	t.Run("zero serving unknown rate", func(t *testing.T) {
		// Nothing rejected: there is nothing for a candidate to win, and
		// candidate_rate <= factor*0 would otherwise pass vacuously.
		m := arm(t, 0)
		for i := 0; i < 25; i++ {
			observe(m, 0, 0, false, 1, 1)
		}
		if m.GateReady() {
			t.Fatal("gate open with a zero serving unknown rate")
		}
	})

	t.Run("low agreement", func(t *testing.T) {
		// The candidate contradicts serving on accepted windows.
		m := arm(t, 1)
		for i := 0; i < 20; i++ {
			observe(m, 0, 0, false, 1, 1)
		}
		for i := 0; i < 5; i++ {
			observe(m, 0, 0, true, 60, 60)
		}
		st := m.Status()
		if st.Shadow.Agreement != 0 {
			t.Fatalf("agreement %v, want 0", st.Shadow.Agreement)
		}
		if st.GateReady {
			t.Fatal("gate open at zero agreement")
		}
	})

	t.Run("too few windows", func(t *testing.T) {
		m := arm(t, 0)
		for i := 0; i < 5; i++ {
			observe(m, 0, 0, false, 1, 1)
		}
		observe(m, 0, 0, true, 60, 60)
		if m.GateReady() {
			t.Fatal("gate open under ShadowMinWindows")
		}
	})
}

func TestManagerStaleCandidateDiscarded(t *testing.T) {
	tr := &stubTrainer{a: stubArtifact(0)}
	m := testManager(t, tr, nil, nil)
	// Mid-train, a swap lands: the generation the candidate was built
	// against is gone by the time training returns.
	tr.midway = func() { observe(m, 7, 0, false, 1, 1) }
	fillBuffer(m, 0, 6)
	if err := m.BuildCandidate(); !errors.Is(err, ErrStale) {
		t.Fatalf("BuildCandidate across a swap: %v", err)
	}
	st := m.Status()
	if st.Phase != PhaseBuffer {
		t.Fatalf("stale build left phase %q, want buffer (flywheel must not wedge)", st.Phase)
	}
	if st.Candidate != nil || st.Shadow != nil {
		t.Fatalf("stale candidate retained: %+v", st)
	}
	// The flywheel keeps working: rebuffer at the new generation and build.
	tr.midway = nil
	fillBuffer(m, 7, 6)
	if err := m.BuildCandidate(); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Phase != PhaseShadow {
		t.Fatalf("rebuild after stale: %+v", st)
	}
}

func TestManagerAbortRestartsBuffering(t *testing.T) {
	m := testManager(t, &stubTrainer{a: stubArtifact(0)}, nil, nil)
	if err := m.Abort(); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("abort with nothing in flight: %v", err)
	}
	fillBuffer(m, 0, 6)
	if err := m.BuildCandidate(); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.Phase != PhaseBuffer || st.Buffered != 0 || st.Aborts != 1 {
		t.Fatalf("after abort: %+v", st)
	}
	if st.Candidate != nil || st.Shadow != nil || len(st.Families) != 0 {
		t.Fatalf("abort retained candidate state: %+v", st)
	}
}

func TestManagerIgnoresTornFeatureRows(t *testing.T) {
	m := testManager(t, &stubTrainer{a: stubArtifact(0)}, nil, nil)
	// A row of the wrong width must not enter the buffer (defensive: the
	// fleet always hands FeatureDim-wide rows).
	m.ObserveWindow(fleet.Observation{Rejected: true, Features: []float64{1, 2, 3}})
	if st := m.Status(); st.Buffered != 0 || st.Observed != 1 {
		t.Fatalf("torn row buffered: %+v", st)
	}
}

// TestBuildCandidateIgnoresArrivalOrder pins that families are a function of
// which rows were rejected, not of the order concurrent shard ticks offered
// them in. The rows form a ramp much longer than the clustering radius, so
// leader clustering over the raw arrival order founds different leaders for
// different permutations.
func TestBuildCandidateIgnoresArrivalOrder(t *testing.T) {
	rows := make([][2]float64, 60)
	for i := range rows {
		rows[i] = [2]float64{float64(i), float64(i % 7)}
	}
	build := func(seed int64) []Family {
		m := testManager(t, &stubTrainer{a: stubArtifact(4)}, nil, nil)
		order := rand.New(rand.NewSource(seed)).Perm(len(rows))
		for _, i := range order {
			observe(m, 0, 0, true, rows[i][0], rows[i][1])
		}
		if err := m.BuildCandidate(); err != nil {
			t.Fatal(err)
		}
		return m.Families()
	}
	want := build(1)
	if len(want) < 2 {
		t.Fatalf("fixture clustered into %d families; it needs several for order to matter", len(want))
	}
	for seed := int64(2); seed <= 6; seed++ {
		if got := build(seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("arrival order %d built different families:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}
