package adapt

import (
	"errors"
	"flag"
	"math/rand"
	"testing"
	"time"

	"repro/internal/artifact"
)

// TestPromotionSwapObservedBeforeHookReturns is the interleaving that used
// to wedge the flywheel: the promotion hook's own swap is observed (a tick
// reports the new generation) before Promote re-takes the lock. That
// observation is the reset; Promote must not then park the lifecycle in
// "promoted" with no swap left to end it.
func TestPromotionSwapObservedBeforeHookReturns(t *testing.T) {
	tr := &stubTrainer{a: stubArtifact(0)}
	var m *Manager
	m = testManager(t, tr, func(*artifact.Artifact) error {
		observe(m, 1, 0, false, 1, 1) // the swap lands, and is seen, inside the hook
		return nil
	}, nil)
	fillBuffer(m, 0, 6)
	if err := m.BuildCandidate(); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote(); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Phase != PhaseBuffer || st.Promotions != 1 || st.Candidate != nil || st.Gen != 1 {
		t.Fatalf("after a promotion whose swap was observed first: %+v, want buffer at gen 1", st)
	}
	// The new model rejects fresh traffic too: the flywheel must build again.
	fillBuffer(m, 1, 20)
	m.step()
	m.step()
	if st := m.Status(); st.Phase != PhaseShadow || tr.trained != 2 {
		t.Fatalf("20 fresh rejections and two steps later: phase %q after %d trainer calls, want shadow after 2", st.Phase, tr.trained)
	}
}

// adaptSeed replays one model-check sequence: go test -run
// LifecycleModelCheck ./internal/adapt -adapt.seed=N. Without it the check
// runs a fixed set of seeds plus one drawn from the clock, so repeated runs
// (-count=20 nightly) keep covering new interleavings.
var adaptSeed = flag.Int64("adapt.seed", 0, "replay TestLifecycleModelCheck with this seed only")

// lifecycleRef is the reference the Manager's lifecycle is checked against:
// the phase, whether a candidate is held, and the three numbers the edges
// depend on. No lock, no reservoir, no shadow scoring.
type lifecycleRef struct {
	phase    Phase
	cand     bool
	gen      uint64
	buffered int
	trained  int // trainer calls so far
}

const (
	refMinSupport = 5  // testManager's
	refCapacity   = 64 // testManager's
)

func (r *lifecycleRef) observe(gen uint64, rejected bool) {
	if gen != r.gen {
		r.gen, r.buffered = gen, 0
		if r.phase == PhaseShadow || r.phase == PhasePromoted {
			r.phase, r.cand = PhaseBuffer, false
		}
	}
	if rejected && r.buffered < refCapacity {
		r.buffered++
	}
}

// build is BuildCandidate: swap, when non-zero, is a generation observed
// while the trainer runs, and trainErr is what the trainer returns.
func (r *lifecycleRef) build(swap uint64, trainErr error) error {
	switch {
	case r.phase == PhaseShadow:
		return ErrBusy
	case r.buffered < refMinSupport:
		return ErrNotReady
	}
	started := r.gen
	r.phase = PhaseTrain
	r.trained++
	if swap != 0 {
		r.observe(swap, true)
	}
	switch {
	case trainErr != nil:
		r.phase = PhaseBuffer
		return trainErr
	case r.gen != started:
		r.phase = PhaseBuffer
		return ErrStale
	}
	r.phase, r.cand = PhaseShadow, true
	return nil
}

// promote is Promote: swap, when non-zero, is the promotion's own swap
// observed before the hook returns; hookErr is what the hook returns.
func (r *lifecycleRef) promote(swap uint64, hookErr error) error {
	if !r.cand {
		return ErrNoCandidate
	}
	if swap != 0 {
		r.observe(swap, false)
	}
	if hookErr != nil {
		return hookErr
	}
	if r.cand {
		r.phase, r.cand = PhasePromoted, false
	}
	return nil
}

func (r *lifecycleRef) abort() error {
	if !r.cand {
		return ErrNoCandidate
	}
	r.phase, r.cand, r.buffered = PhaseBuffer, false, 0
	return nil
}

// TestLifecycleModelCheck drives random interleavings of observed windows
// (same or new generation, rejected or not), BuildCandidate (a swap landing
// mid-train, a failing trainer), Promote (the hook observing its own swap, a
// failing hook), Abort and the background step against lifecycleRef. After
// every operation the phase, the candidate, the generation, the buffer and
// the trainer-call count agree — so in particular an armed flywheel resting
// in buffer always builds on its next step.
func TestLifecycleModelCheck(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, time.Now().UnixNano()}
	if *adaptSeed != 0 {
		seeds = []int64{*adaptSeed}
	}
	for _, seed := range seeds {
		checkLifecycleAgainstRef(t, seed)
	}
}

func checkLifecycleAgainstRef(t *testing.T, seed int64) {
	const ops = 500
	rng := rand.New(rand.NewSource(seed))
	errTrain, errHook := errors.New("trainer failed"), errors.New("hook failed")

	var (
		m        *Manager
		hookSwap uint64
		hookErr  error
	)
	tr := &stubTrainer{a: stubArtifact(0)}
	m = testManager(t, tr, func(*artifact.Artifact) error {
		if hookSwap != 0 {
			observe(m, hookSwap, 0, false, 1, 1)
		}
		return hookErr
	}, nil)
	ref := &lifecycleRef{phase: PhaseBuffer}

	// armBuild draws what happens inside the next trainer call, for the
	// Manager and the reference alike.
	armBuild := func() (swap uint64, trainErr error) {
		switch rng.Intn(6) {
		case 0:
			swap = ref.gen + 1
		case 1:
			trainErr = errTrain
		}
		tr.err, tr.midway = trainErr, nil
		if swap != 0 {
			tr.midway = func() { observe(m, swap, 0, true, 50, 50) }
		}
		return swap, trainErr
	}

	for op := 0; op < ops; op++ {
		var name string
		var got, want error
		switch k := rng.Intn(12); {
		case k < 5:
			name = "observe"
			gen, rejected := ref.gen, rng.Intn(3) > 0
			if rng.Intn(8) == 0 {
				name, gen = "observe a new generation", gen+1
			}
			observe(m, gen, 0, rejected, 50+float64(op%3), 50)
			ref.observe(gen, rejected)
		case k < 7:
			name = "BuildCandidate"
			swap, trainErr := armBuild()
			got, want = m.BuildCandidate(), ref.build(swap, trainErr)
		case k < 9:
			name = "Promote"
			hookSwap, hookErr = 0, nil
			switch rng.Intn(4) {
			case 0, 1:
				hookSwap = ref.gen + 1
			case 2:
				hookErr = errHook
			}
			got, want = m.Promote(), ref.promote(hookSwap, hookErr)
		case k == 9:
			name = "Abort"
			got, want = m.Abort(), ref.abort()
		default:
			name = "step"
			swap, trainErr := armBuild()
			if ref.phase == PhaseBuffer && ref.buffered >= refMinSupport {
				name = "step (armed)"
				ref.build(swap, trainErr)
			}
			m.step()
		}
		if !errors.Is(got, want) {
			t.Fatalf("seed %d op %d %s: returned %v, reference %v", seed, op, name, got, want)
		}
		st := m.Status()
		if st.Phase != ref.phase || (st.Candidate != nil) != ref.cand || (st.Shadow != nil) != ref.cand ||
			st.Gen != ref.gen || st.Buffered != ref.buffered || st.Training || tr.trained != ref.trained {
			t.Fatalf("seed %d op %d %s: manager phase %q candidate %v shadow %v gen %d buffered %d training %v after %d trainer calls;"+
				" reference phase %q candidate %v gen %d buffered %d after %d (replay with -adapt.seed=%d)",
				seed, op, name, st.Phase, st.Candidate != nil, st.Shadow != nil, st.Gen, st.Buffered, st.Training, tr.trained,
				ref.phase, ref.cand, ref.gen, ref.buffered, ref.trained, seed)
		}
	}
}
