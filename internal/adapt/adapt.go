// Package adapt closes the loop on unknown workloads: the
// continual-learning flywheel that turns the serving plane's open-set
// rejections into new trained classes, zero-downtime.
//
// The paper's framing is a lifecycle, not a one-shot model: detect workloads
// the classifier was never trained on, then incorporate them. PR 5 built the
// detect half (internal/drift); this package is the incorporate half, five
// stages riding the serving plane's existing machinery (the lifecycle state
// that steps through them is Manager.phase, moved only by Manager.to):
//
//	buffer  — rejected windows from fleet tick write-back land in a bounded,
//	          generation-aware reservoir (fleet.Observer; never blocks a tick)
//	cluster — buffered feature vectors group into candidate families by
//	          leader clustering, with a min-support gate so noise never
//	          becomes a class
//	train   — a Trainer (ProvenanceTrainer in production) fits a candidate
//	          model over base classes + families, reusing the serving scaler
//	          verbatim and refreshing the drift calibration
//	shadow  — the candidate scores live traffic side-by-side with the
//	          serving model: per-class agreement, unknown-rate delta
//	promote — on the quality gate (or an explicit POST /v1/adapt/promote)
//	          the candidate installs through the same SwapClassifierDrift /
//	          cluster-distribute path any retrained artifact uses
//
// The flywheel observes serving; it never participates in it. Attaching a
// Manager changes no prediction bit until a promotion actually swaps the
// model — TestAdaptEquivalenceBitIdentical pins that — and every stage
// respects the tick-path discipline the events bus set: bounded work,
// no blocking, drop before delay.
package adapt

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/preprocess"
)

// Phase names one state of the flywheel's lifecycle.
type Phase string

const (
	// PhaseBuffer is the resting state: rejected windows accumulate in the
	// reservoir until a candidate is worth building.
	PhaseBuffer Phase = "buffer"
	// PhaseTrain covers the transient cluster-and-train step; ticks keep
	// buffering while it runs in the background.
	PhaseTrain Phase = "train"
	// PhaseShadow means a candidate is being scored against live traffic.
	PhaseShadow Phase = "shadow"
	// PhasePromoted means the promotion hook took the candidate and the swap
	// it triggers has not been observed yet; the first window of the new
	// generation returns the flywheel to PhaseBuffer.
	PhasePromoted Phase = "promoted"
)

// Errors the lifecycle methods return for expected conditions.
var (
	// ErrNotReady means the reservoir has not met the min-support gate.
	ErrNotReady = errors.New("adapt: not enough buffered unknown windows")
	// ErrNoFamilies means clustering found no family dense enough.
	ErrNoFamilies = errors.New("adapt: no cluster met the min-support gate")
	// ErrNoCandidate means there is no candidate to promote or abort.
	ErrNoCandidate = errors.New("adapt: no candidate in shadow")
	// ErrBusy means a candidate build is already in flight.
	ErrBusy = errors.New("adapt: candidate build already running")
	// ErrStale means a model swap landed while the candidate trained, so
	// the candidate was discarded.
	ErrStale = errors.New("adapt: model generation changed during training; candidate discarded")
	// ErrGate means the quality gate is not yet satisfied.
	ErrGate = errors.New("adapt: quality gate not satisfied")
)

const (
	// maxFamilies caps how many new classes one candidate may add.
	maxFamilies = 4
	// gateUnknownFactor caps the candidate's unknown rate relative to
	// serving's: candidate_rate <= factor × serving_rate. With serving_rate
	// zero the gate never passes — there is nothing to win, and a degenerate
	// candidate must not promote on the back of all-rejected or empty
	// comparisons.
	gateUnknownFactor = 0.5
)

// Config sizes a Manager. FeatureDim and Trainer are required; Promote is
// required for promotion to work.
type Config struct {
	// FeatureDim is the embedding width (preprocess.CovarianceDim of the
	// sensor count).
	FeatureDim int
	// Capacity bounds the reservoir (default 4096 rows).
	Capacity int
	// MinSupport is the smallest cluster that may become a class, and also
	// the buffered-row count that arms candidate building (default 30).
	MinSupport int
	// Radius is the leader-clustering radius in normalised feature space.
	// Zero derives it from the serving calibration's feature-distance
	// threshold (the natural "different enough to have been rejected"
	// scale), falling back to sqrt(FeatureDim).
	Radius float64
	// Calibration is the serving drift calibration: its feature statistics
	// normalise rows for clustering and its threshold anchors the default
	// Radius. Optional.
	Calibration *drift.Calibration
	// Trainer builds candidate artifacts from clustered families.
	Trainer Trainer
	// ShadowMinWindows is the least live windows a candidate must shadow
	// before the quality gate can pass (default 200).
	ShadowMinWindows int
	// GateAgreement is the per-window agreement the candidate must hold on
	// serving-accepted traffic (default 0.9).
	GateAgreement float64
	// AutoPromote lets Run promote on the gate without an operator; off,
	// the gate only reports ready and POST /v1/adapt/promote decides.
	AutoPromote bool
	// Promote installs a candidate artifact into serving — wccserve writes
	// it to the watched model path (the watcher and cluster distribution
	// then do the swap), tests call SwapClassifierDrift directly.
	Promote func(a *artifact.Artifact) error
	// Events, when non-nil, receives TypeAdapt lifecycle events.
	Events events.Sink
	// Seed makes reservoir sampling deterministic (default 1).
	Seed int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.FeatureDim <= 0 {
		return errors.New("adapt: FeatureDim required")
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 30
	}
	if c.Radius <= 0 {
		if c.Calibration != nil && c.Calibration.Threshold.MaxFeatDist > 0 {
			c.Radius = c.Calibration.Threshold.MaxFeatDist
		} else {
			c.Radius = math.Sqrt(float64(c.FeatureDim))
		}
	}
	if c.ShadowMinWindows <= 0 {
		c.ShadowMinWindows = 200
	}
	if c.GateAgreement <= 0 {
		c.GateAgreement = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Manager runs the flywheel. It implements fleet.Observer; attach it with
// fleet.Monitor.SetAdaptObserver. All methods
// are safe for concurrent use; ObserveWindow follows the Observer contract
// (concurrency-safe bounded compute inside the tick, never blocking).
type Manager struct {
	cfg Config

	mu       sync.Mutex
	phase    Phase  // the one lifecycle state; only to changes it
	gen      uint64 // swap generation the buffered/shadow state belongs to
	observed uint64 // windows seen since attach (all verdicts)
	res      *reservoir
	// What PhaseShadow owns — the candidate, the families behind it and its
	// live comparison — set on entering that phase and dropped by to on
	// leaving it, so each is non-nil exactly while phase is PhaseShadow.
	fams     []Family
	cand     *artifact.Artifact
	candDesc string
	shadow   *shadowState
	promos   uint64
	aborts   uint64
	lastErr  string
}

// to is the one place the lifecycle moves. The legal edges:
//
//	buffer   → train     BuildCandidate took a snapshot worth clustering
//	promoted → train     the same, asked for by hand while a swap is awaited
//	train    → shadow    the build produced a candidate for its generation
//	train    → buffer    the build failed, found no family, or went stale
//	shadow   → promoted  the promotion hook took the candidate
//	shadow   → buffer    Abort, or a swap observed: the candidate was judged
//	                     against a model no longer served
//	promoted → buffer    the awaited swap (or any other) observed
//
// Anything else is a bug in the caller, which has just read phase under the
// same lock. Callers hold m.mu.
func (m *Manager) to(next Phase) {
	switch [2]Phase{m.phase, next} {
	case [2]Phase{PhaseBuffer, PhaseTrain}, [2]Phase{PhasePromoted, PhaseTrain},
		[2]Phase{PhaseTrain, PhaseShadow}, [2]Phase{PhaseTrain, PhaseBuffer},
		[2]Phase{PhaseShadow, PhasePromoted}, [2]Phase{PhaseShadow, PhaseBuffer},
		[2]Phase{PhasePromoted, PhaseBuffer}:
	default:
		panic(fmt.Sprintf("adapt: illegal lifecycle transition %s → %s", m.phase, next))
	}
	m.phase = next
	m.fams, m.cand, m.candDesc, m.shadow = nil, nil, "", nil
}

// New validates the configuration and returns a Manager in PhaseBuffer.
func New(cfg Config) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Trainer == nil {
		return nil, errors.New("adapt: Trainer required")
	}
	return &Manager{
		cfg:   cfg,
		phase: PhaseBuffer,
		res:   newReservoir(cfg.Capacity, cfg.Seed),
	}, nil
}

// normStats returns the calibration's feature statistics when they match
// the embedding width (nil otherwise — clustering then runs unnormalised).
func normStats(cal *drift.Calibration, dim int) *drift.FeatureStats {
	if cal == nil || cal.Feat == nil || len(cal.Feat.Means) != dim {
		return nil
	}
	return cal.Feat
}

// ObserveWindow implements fleet.Observer: buffer the rejected windows,
// shadow-score everything while a candidate is live, and reset buffered
// state when the model generation moves under us. Runs under the fleet's
// tick mutex — bounded compute only.
func (m *Manager) ObserveWindow(o fleet.Observation) {
	m.mu.Lock()
	if o.Gen != m.gen {
		// A swap landed (a promotion from this flywheel, or any other
		// artifact roll): everything buffered or shadowing was scored by
		// the previous model. Start the cycle over against the new one.
		// A build in flight finds out when it ends (ErrStale).
		m.gen = o.Gen
		m.res.reset()
		if m.phase == PhaseShadow || m.phase == PhasePromoted {
			m.to(PhaseBuffer)
		}
	}
	m.observed++
	if len(o.Features) == m.cfg.FeatureDim {
		if o.Rejected {
			m.res.offer(o.Features)
		}
		if m.shadow != nil {
			m.shadow.score(o)
		}
	}
	m.mu.Unlock()
}

// BuildCandidate runs the cluster-and-train step: snapshot the reservoir,
// cluster it, hand the families to the Trainer, and arm shadow scoring
// with the result. Training runs on the caller's goroutine (Run calls it
// from the background loop; tests call it synchronously) — never on the
// tick path. Returns ErrNotReady / ErrNoFamilies / ErrBusy / ErrStale for
// the expected non-fatal outcomes.
func (m *Manager) BuildCandidate() error {
	m.mu.Lock()
	if m.phase == PhaseTrain {
		m.mu.Unlock()
		return ErrBusy
	}
	if m.phase == PhaseShadow {
		m.mu.Unlock()
		return fmt.Errorf("adapt: candidate already in shadow: %w", ErrBusy)
	}
	if len(m.res.rows) < m.cfg.MinSupport {
		m.mu.Unlock()
		return ErrNotReady
	}
	rows := m.res.snapshot()
	gen := m.gen
	m.to(PhaseTrain)
	m.mu.Unlock()

	// Cluster is deterministic in the row order, and the reservoir's order
	// is whatever order concurrent shard ticks and registry walks offered
	// rows in. Sorting first makes the families — and so the candidate — a
	// function of which rows were rejected, not of goroutine scheduling.
	slices.SortFunc(rows, slices.Compare[[]float64])
	norm := normStats(m.cfg.Calibration, m.cfg.FeatureDim)
	fams := Cluster(rows, norm, m.cfg.Radius, m.cfg.MinSupport, maxFamilies)
	if len(fams) == 0 {
		return m.endBuild(gen, nil, nil, ErrNoFamilies)
	}
	m.logf("adapt: clustered %d buffered unknown windows into %d family(ies); training candidate", len(rows), len(fams))
	a, err := m.cfg.Trainer.Train(fams)
	if err == nil && (a == nil || a.Model == nil) {
		err = errors.New("adapt: trainer returned an artifact with no model")
	}
	return m.endBuild(gen, fams, a, err)
}

// endBuild finishes a BuildCandidate pass under the lock and publishes the
// outcome after releasing it.
func (m *Manager) endBuild(gen uint64, fams []Family, a *artifact.Artifact, err error) error {
	m.mu.Lock()
	if err == nil && m.gen != gen {
		// The serving model moved while we trained: the candidate was built
		// from stale rejections. Drop it; buffering has already restarted.
		err = ErrStale
	}
	if err != nil {
		m.lastErr = err.Error()
		m.to(PhaseBuffer)
		m.mu.Unlock()
		return err
	}
	desc := fmt.Sprintf("%s %d-class (%d novel)", a.Meta.Kind, len(a.Meta.ClassNames), len(fams))
	m.to(PhaseShadow)
	m.fams, m.cand, m.candDesc = fams, a, desc
	m.shadow = newShadowState(a.Model, a.Drift, m.cfg.FeatureDim)
	m.lastErr = ""
	m.mu.Unlock()
	m.publish(events.Event{Type: events.TypeAdapt, Phase: "candidate", Model: desc})
	m.publish(events.Event{Type: events.TypeAdapt, Phase: "shadow", Model: desc})
	m.logf("adapt: candidate in shadow: %s", desc)
	return nil
}

// GateReady reports whether the promotion quality gate currently passes.
func (m *Manager) GateReady() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gateReadyLocked()
}

func (m *Manager) gateReadyLocked() bool {
	if m.shadow == nil {
		return false
	}
	st := m.shadow.stats()
	if st.Windows < uint64(m.cfg.ShadowMinWindows) {
		return false
	}
	// All-rejected traffic leaves nothing to compare: Compared == 0 keeps
	// Agreement at 0 and the gate shut, so a degenerate candidate cannot
	// promote off an empty denominator.
	if st.Compared == 0 || st.Agreement < m.cfg.GateAgreement {
		return false
	}
	if st.ServingUnknownRate <= 0 {
		return false // nothing to win; also avoids the 0×factor trap
	}
	return st.CandidateUnknownRate <= gateUnknownFactor*st.ServingUnknownRate
}

// Promote installs the shadowing candidate through the configured Promote
// hook, unconditionally (the operator's explicit decision). The swap it
// triggers advances the fleet generation, which resets the flywheel to
// buffering on the first window observed under it — whether that window
// comes before or after the hook returns.
func (m *Manager) Promote() error {
	m.mu.Lock()
	cand := m.cand
	desc := m.candDesc
	m.mu.Unlock()
	if cand == nil {
		return ErrNoCandidate
	}
	if m.cfg.Promote == nil {
		return errors.New("adapt: no promotion hook configured")
	}
	err := m.cfg.Promote(cand)
	m.mu.Lock()
	if err != nil {
		m.lastErr = err.Error()
		m.mu.Unlock()
		return err
	}
	m.promos++
	m.lastErr = ""
	// The lock was released around the hook. If this candidate is no longer
	// the one in shadow, its swap has been observed already (or it was
	// aborted meanwhile): that reset stands, and there is no swap to await.
	if m.cand == cand {
		m.to(PhasePromoted)
	}
	m.mu.Unlock()
	m.publish(events.Event{Type: events.TypeAdapt, Phase: "promoted", Model: desc})
	m.logf("adapt: promoted candidate: %s", desc)
	return nil
}

// PromoteIfReady promotes only when the quality gate passes, returning
// ErrGate otherwise.
func (m *Manager) PromoteIfReady() error {
	if !m.GateReady() {
		return ErrGate
	}
	return m.Promote()
}

// Abort discards the shadowing candidate and the buffered reservoir (the
// same rejections would immediately rebuild the same candidate) and
// returns the flywheel to buffering.
func (m *Manager) Abort() error {
	m.mu.Lock()
	if m.phase != PhaseShadow {
		m.mu.Unlock()
		return ErrNoCandidate
	}
	desc := m.candDesc
	m.to(PhaseBuffer)
	m.res.reset()
	m.aborts++
	m.mu.Unlock()
	m.publish(events.Event{Type: events.TypeAdapt, Phase: "aborted", Model: desc})
	m.logf("adapt: aborted candidate: %s", desc)
	return nil
}

// Candidate returns the current candidate artifact (nil outside shadow).
func (m *Manager) Candidate() *artifact.Artifact {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cand
}

// Families returns the families behind the current candidate (nil outside
// shadow); rows are shared, callers must not mutate.
func (m *Manager) Families() []Family {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fams
}

// Run drives the flywheel in the background until stop closes: build a
// candidate once the reservoir arms, and (with AutoPromote) promote once
// the gate passes. wccserve starts it next to the tick loop; tests drive
// the steps synchronously instead.
func (m *Manager) Run(stop <-chan struct{}, every time.Duration) {
	if every <= 0 {
		every = 5 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.step()
		}
	}
}

// step is one background-loop iteration.
func (m *Manager) step() {
	m.mu.Lock()
	buffered := len(m.res.rows)
	phase := m.phase
	m.mu.Unlock()
	switch {
	case phase == PhaseBuffer && buffered >= m.cfg.MinSupport:
		if err := m.BuildCandidate(); err != nil && !errors.Is(err, ErrNotReady) && !errors.Is(err, ErrBusy) {
			m.logf("adapt: candidate build: %v", err)
		}
	case phase == PhaseShadow && m.cfg.AutoPromote:
		if err := m.PromoteIfReady(); err != nil && !errors.Is(err, ErrGate) {
			m.logf("adapt: auto-promotion: %v", err)
		}
	}
}

// FamilyInfo is one family's row in a Status.
type FamilyInfo struct {
	ID    int `json:"id"`
	Count int `json:"count"`
}

// CandidateInfo summarises the candidate under shadow.
type CandidateInfo struct {
	Kind       string   `json:"kind"`
	Classes    int      `json:"classes"`
	Novel      int      `json:"novel"`
	ClassNames []string `json:"class_names,omitempty"`
	// Accuracy is the candidate's accuracy on the regenerated base test
	// split — the "did we keep the old classes" check.
	Accuracy float64 `json:"base_accuracy"`
}

// Status is the flywheel's full read surface, served on GET /v1/adapt.
type Status struct {
	Phase       Phase          `json:"phase"`
	Gen         uint64         `json:"gen"`
	Observed    uint64         `json:"observed_windows"`
	Buffered    int            `json:"buffered"`
	BufferedCap int            `json:"buffer_capacity"`
	Dropped     uint64         `json:"dropped_total"`
	MinSupport  int            `json:"min_support"`
	Training    bool           `json:"training"`
	AutoPromote bool           `json:"auto_promote"`
	GateReady   bool           `json:"gate_ready"`
	Families    []FamilyInfo   `json:"families,omitempty"`
	Candidate   *CandidateInfo `json:"candidate,omitempty"`
	Shadow      *ShadowStats   `json:"shadow,omitempty"`
	Promotions  uint64         `json:"promotions_total"`
	Aborts      uint64         `json:"aborts_total"`
	LastError   string         `json:"last_error,omitempty"`
}

// Status snapshots the flywheel.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Phase:       m.phase,
		Gen:         m.gen,
		Observed:    m.observed,
		Buffered:    len(m.res.rows),
		BufferedCap: m.res.cap,
		Dropped:     m.res.dropped,
		MinSupport:  m.cfg.MinSupport,
		Training:    m.phase == PhaseTrain,
		AutoPromote: m.cfg.AutoPromote,
		GateReady:   m.gateReadyLocked(),
		Promotions:  m.promos,
		Aborts:      m.aborts,
		LastError:   m.lastErr,
	}
	for _, f := range m.fams {
		st.Families = append(st.Families, FamilyInfo{ID: f.ID, Count: f.Count})
	}
	if m.cand != nil {
		st.Candidate = &CandidateInfo{
			Kind:       m.cand.Meta.Kind,
			Classes:    len(m.cand.Meta.ClassNames),
			Novel:      m.cand.Meta.NovelClasses,
			ClassNames: m.cand.Meta.ClassNames,
			Accuracy:   m.cand.Meta.Accuracy,
		}
	}
	if m.shadow != nil {
		ss := m.shadow.stats()
		st.Shadow = &ss
	}
	return st
}

// publish emits a lifecycle event; never called under m.mu (the sink is
// non-blocking by contract, but lifecycle emission has no ordering to
// protect, so it takes no chances with lock scope).
func (m *Manager) publish(e events.Event) {
	if m.cfg.Events != nil {
		m.cfg.Events.Publish(e)
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// FeatureDimFor is a convenience for wiring: the covariance embedding
// width for a sensor count.
func FeatureDimFor(sensors int) int { return preprocess.CovarianceDim(sensors) }
