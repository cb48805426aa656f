// Package fleet scales the single-job stream monitor to datacenter scale:
// thousands of jobs streaming telemetry concurrently, classified together.
//
// The paper frames workload classification as something an operator runs
// continuously over live telemetry from the whole machine (§VI); package
// stream provides the per-job building block (an incrementally maintained
// sliding-window covariance embedding plus a classifier), and this package
// provides the serving layer around it:
//
//   - a sharded registry of per-job WindowedEmbedders — job IDs hash to
//     shards, each shard guarded by its own mutex, so concurrent ingest from
//     many collector goroutines contends only within a shard;
//   - an ingest path (Ingest) accepting one telemetry sample for any job,
//     creating the job's embedder on first sight and, when the sample leaves
//     a full window unscored, appending the job to its shard's dirty queue;
//   - a batched inference engine (Tick) that drains those queues into a
//     single N×F feature matrix and runs one batched PredictProba call
//     instead of N single-row calls — a tick costs what it classifies, not
//     what is resident, and a failed tick puts what it drained back;
//   - a zero-downtime model refresh (SwapClassifierDrift) that installs a
//     retrained classifier and its drift calibration between inference
//     ticks — the in-flight batch finishes on the old model, ingest never
//     stalls, and no tick mixes predictions from two models;
//   - job lifecycle: EndJob releases a finished job's slot and returns its
//     final prediction, EvictIdle garbage-collects jobs whose producers
//     went away, and Snapshot gives operators a read-only, ID-sorted view
//     of every registered job;
//   - optional open-set detection (Config.Drift, see internal/drift):
//     ticks annotate every prediction with calibrated open-set scores and
//     an unknown-workload rejection flag, ingest accumulates per-sensor
//     input histograms, and DriftStats reports the fleet's PSI drift
//     against the training-time reference — without changing a single
//     in-distribution prediction bit.
//
// Models that implement BatchClassifier (forest, xgb) get their worker-pool
// batched path; any stream.Classifier still works via one multi-row
// PredictProba call. Either way per-row results are bit-identical to what a
// per-job stream.Monitor would produce, so scaling out changes throughput,
// not predictions.
//
// One Monitor still serialises inference on a single tick mutex; package
// shard partitions jobs across many Monitors with independent tick loops,
// and package server puts the HTTP API in front of that sharded core.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/stream"
	"repro/internal/trace"
)

// BatchClassifier is the fast path a model can offer for fleet serving: one
// call scoring a whole N×F feature matrix, typically parallelised across
// rows (forest.PredictProbaBatch, xgb.PredictProbaBatch). Row i of the
// result must equal row i of PredictProba on the same matrix bit for bit.
type BatchClassifier interface {
	PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error)
}

// Observation is one scored window handed to an attached adapt observer at
// tick write-back: the serving verdict plus the exact feature row the model
// consumed. Features is borrowed from the tick's batch matrix — an observer
// that retains it past the call must copy. Gen counts completed model swaps
// at scoring time, so an observer can discard windows scored by an older
// generation after a promotion.
type Observation struct {
	Job      int
	Class    int
	Rejected bool // open-set verdict (always false when drift is disabled)
	Gen      uint64
	Features []float64 // borrowed; valid only for the duration of the call
}

// Observer receives every scored window from tick write-back — the feed the
// continual-learning flywheel (internal/adapt) buffers rejected windows and
// shadow-scores candidates from. Calls happen under the tick mutex, so an
// implementation must be bounded pure compute: no blocking operations, no
// calls back into the Monitor, and the same non-blocking discipline the
// events bus pins. Observing never alters a prediction bit.
type Observer interface {
	ObserveWindow(o Observation)
}

// Config sizes a fleet monitor.
type Config struct {
	// Window and Sensors give the per-job sliding-window shape (the
	// challenge's 540×7).
	Window  int
	Sensors int
	// Scaler holds the offline training-time statistics every job's window
	// is standardised with (see stream.NewWindowedEmbedder).
	Scaler *preprocess.StandardScaler
	// Model classifies embedded windows. When it also implements
	// BatchClassifier, ticks use the batched path.
	Model stream.Classifier
	// Drift, when non-nil, enables open-set detection and input-drift
	// monitoring: every tick annotates predictions with open-set scores
	// and a rejected flag from the calibrated threshold, and every
	// ingested sample lands in per-sensor drift histograms (DriftStats).
	// In-distribution predictions are bit-identical with or without it —
	// scoring annotates, it never alters Class/Probability/Probs.
	Drift *drift.Calibration
	// Now, when non-nil, replaces the real clock for last-seen stamps,
	// idle-eviction cutoffs and per-stage trace timestamps. Tests and tick
	// drivers that own the cadence inject it so tick output is a pure
	// function of its inputs (the //wcc:tickpath discipline); nil means
	// time.Now.
	Now func() time.Time
}

// registryStripes is the registry shard count: the lock granularity of
// concurrent ingest. DESIGN.md §9 has the measurement behind the value.
const registryStripes = 32

// jobState is one job's slot in the registry, guarded by its shard's mutex.
type jobState struct {
	id   int    // the job's fleet ID, for event emission at write-back
	home *shard // owning shard, for lock re-acquisition at write-back
	emb  *stream.WindowedEmbedder
	// dirty: the window is full and holds samples no prediction reflects yet.
	// A dirty job is in home.queue exactly once, or in the running tick's
	// batch — the flag is what keeps it to one entry.
	dirty    bool
	pred     *stream.Prediction
	samples  uint64
	lastSeen int64 // UnixNano of the last successful Ingest (0 if none)
}

type shard struct {
	mu   sync.Mutex
	jobs map[int]*jobState
	// queue holds the shard's dirty jobs in the order they turned dirty:
	// Ingest appends, Tick drains. Removal leaves a queued job in place; the
	// drain skips entries the registry no longer maps.
	queue []*jobState
	// unfilled counts registered jobs whose window has not filled
	// (TickStats.Pending), kept at create, fill and remove.
	unfilled int
	// dw accumulates the shard's input-drift histogram counts against the
	// reference dref (both nil when drift monitoring is disabled); guarded
	// by mu like the registry, and replaced together on a drift swap.
	dw   *drift.Window
	dref *drift.Reference
}

// Monitor is a fleet-wide live classifier. Ingest may be called from any
// number of goroutines concurrently, including concurrently with Tick;
// Tick itself is serialised internally.
type Monitor struct {
	cfg    Config
	dim    int
	batch  BatchClassifier // nil when Model has no batched path
	shards []*shard
	now    func() time.Time // injected clock (Config.Now, default time.Now)
	// tickMu serialises ticks and model/drift swaps. Event publishes are
	// deliberately ordered under it — the bus is non-blocking by design
	// (events.Bus.Publish drops rather than waits), and publishing inside
	// the critical section is what makes a swap event order exactly with
	// the installation it announces.
	//wcc:coordlock publish-under-lock is the swap/tick ordering protocol
	tickMu sync.Mutex
	// dcal is the live drift calibration (nil = detection disabled). It is
	// written only while holding BOTH tickMu and driftMu, so Tick reads it
	// under tickMu alone and the DriftStats read surface under driftMu
	// alone — and a drift swap can never interleave with either.
	driftMu sync.RWMutex
	dcal    *drift.Calibration
	// evs and tracer are the optional observability plane, both guarded by
	// tickMu (everything that reads them — ticks and swaps — already holds
	// it). nil means disabled; neither influences a single prediction bit.
	evs    events.Sink
	tracer *trace.Recorder
	// obs is the optional adapt observer (nil = detached), guarded by tickMu
	// like the sinks above; it sees every scored window but never a
	// prediction's fate.
	obs Observer
	// scratch is the tick's working memory, guarded by tickMu and reused
	// across ticks: the collected jobs, their N×F feature rows and their
	// open-set scores. Nothing keeps it past the tick — the model returns
	// fresh probabilities and an Observer's Features are borrowed — and the
	// job pointers are cleared when the tick ends. It only grows, to the
	// largest batch seen: at worst every resident job at once, 28 floats of
	// features (plus 48 bytes) each, under 1 % of that job's 30 KB ring.
	scratch struct {
		batch  []collected
		feats  []float64
		scores []drift.Score
	}
	samples  atomic.Uint64
	ticks    atomic.Uint64
	classed  atomic.Uint64
	swaps    atomic.Uint64
	evicted  atomic.Uint64
	unknowns atomic.Uint64
}

// New validates the configuration and returns an empty fleet monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Window < 2 || cfg.Sensors < 1 {
		return nil, fmt.Errorf("fleet: invalid window shape %dx%d", cfg.Window, cfg.Sensors)
	}
	if cfg.Scaler == nil || len(cfg.Scaler.Means) != cfg.Window*cfg.Sensors {
		return nil, errors.New("fleet: scaler not fitted for this window shape")
	}
	if cfg.Model == nil {
		return nil, errors.New("fleet: nil model")
	}
	if err := CheckCalibration(cfg.Drift, cfg.Sensors); err != nil {
		return nil, err
	}
	m := &Monitor{
		cfg:    cfg,
		dim:    preprocess.CovarianceDim(cfg.Sensors),
		dcal:   cfg.Drift,
		shards: make([]*shard, registryStripes),
		now:    cfg.Now,
	}
	if m.now == nil {
		m.now = time.Now
	}
	m.installModel(cfg.Model)
	for i := range m.shards {
		m.shards[i] = &shard{jobs: make(map[int]*jobState)}
		if cfg.Drift != nil {
			m.shards[i].dw = drift.NewWindow(cfg.Sensors, cfg.Drift.Ref.Bins)
			m.shards[i].dref = cfg.Drift.Ref
		}
	}
	return m, nil
}

// CheckCalibration is the calibration-fit check: a reference over the wrong
// sensor count would mis-bin every sample, and feature statistics of the
// wrong width would index out of the embedding row on the first scored tick
// — a crafted or mismatched artifact must be refused, never panic serving.
// New and SwapClassifierDrift run it, and the serving gate (server.Servable)
// runs it on an artifact before a core is built or a swap is prepared, so a
// calibration is judged the same wherever it first arrives. nil (detection
// disabled) is always valid.
func CheckCalibration(cal *drift.Calibration, sensors int) error {
	if cal == nil {
		return nil
	}
	if cal.Ref == nil {
		return errors.New("fleet: drift calibration carries no input reference")
	}
	if got := cal.Ref.Sensors(); got != sensors {
		return fmt.Errorf("fleet: drift reference covers %d sensors, fleet has %d", got, sensors)
	}
	if cal.Feat != nil {
		if want := preprocess.CovarianceDim(sensors); len(cal.Feat.Means) != want {
			return fmt.Errorf("fleet: drift feature statistics cover %d features, embedding has %d",
				len(cal.Feat.Means), want)
		}
	}
	return nil
}

// shardFor hashes a job ID to its shard. Sequential IDs are mixed so bursts
// of adjacent jobs do not all land on neighbouring shards.
func (m *Monitor) shardFor(jobID int) *shard {
	h := uint64(jobID) * 0x9e3779b97f4a7c15
	return m.shards[(h>>32)%uint64(len(m.shards))]
}

// maxSampleMagnitude bounds one sensor reading. Real DCGM telemetry sits
// many orders of magnitude below it; values past the bound (and NaN/Inf,
// which JSON cannot express but a direct caller can) would poison the
// sliding-window covariance sums — a NaN never cancels back out of the
// incremental sums, and an enormous finite value destroys their precision
// even after eviction — so they are rejected before touching any state.
const maxSampleMagnitude = 1e12

// CheckSample is the sample gate: a sample of the wrong width, or carrying
// a non-finite or absurdly large value, is refused with the error an ingest
// response reports for its line. Ingest runs it before touching any state;
// a cluster node runs it before a sample leaves for the job's owner, so a
// bad line is refused where it first arrives.
func CheckSample(sample []float64, sensors int) error {
	if len(sample) != sensors {
		return fmt.Errorf("fleet: sample has %d sensors, want %d", len(sample), sensors)
	}
	for i, v := range sample {
		if math.IsNaN(v) || v > maxSampleMagnitude || v < -maxSampleMagnitude {
			return fmt.Errorf("fleet: sensor %d value %v is not a finite telemetry reading", i, v)
		}
	}
	return nil
}

// Ingest feeds one telemetry sample (one value per sensor) for the given
// job, creating the job's embedder on first sight. Safe for concurrent use.
// A sample CheckSample refuses is rejected before the job registers, so a
// stream of invalid samples (e.g. hostile ingest traffic behind the HTTP
// layer) cannot grow the registry or corrupt a window.
func (m *Monitor) Ingest(jobID int, sample []float64) error {
	if err := CheckSample(sample, m.cfg.Sensors); err != nil {
		return err
	}
	sh := m.shardFor(jobID)
	sh.mu.Lock()
	js := sh.jobs[jobID]
	if js == nil {
		emb, err := stream.NewWindowedEmbedder(m.cfg.Window, m.cfg.Sensors, m.cfg.Scaler)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		js = &jobState{id: jobID, home: sh, emb: emb}
		sh.jobs[jobID] = js
		sh.unfilled++
	}
	filled := js.emb.Ready()
	err := js.emb.Push(sample)
	if err == nil {
		if js.emb.Ready() {
			if !filled {
				sh.unfilled--
			}
			if !js.dirty {
				js.dirty = true
				sh.queue = append(sh.queue, js)
			}
		}
		js.samples++
		js.lastSeen = m.now().UnixNano()
		if sh.dw != nil {
			sh.dw.Add(sh.dref, sample)
		}
	}
	sh.mu.Unlock()
	if err == nil {
		m.samples.Add(1)
	}
	return err
}

// TickStats reports one batched inference pass.
type TickStats struct {
	// Classified is the number of jobs scored this tick (the batch height).
	Classified int
	// Pending is the number of registered jobs whose window has not filled,
	// whether or not samples arrived since the last tick.
	Pending int
}

// collected pairs a job selected into a tick's batch with the sample count
// observed at collection time, so write-back can tell whether new samples
// arrived while inference ran.
type collected struct {
	js   *jobState
	seen uint64
}

// Tick runs one batched inference pass: the shards' dirty queues are
// drained, every queued job still registered is embedded into one N×F
// matrix, and a single (batched, when available) model call scores it. A
// tick costs what it classifies; with nothing queued it takes the shard
// locks once and allocates nothing. Concurrent Ingest during a tick is safe;
// a job dirtied after its shard was counted, or while inference ran, is
// scored by the next tick. A tick that fails (embedding error, model error,
// row-count mismatch) puts every job it drained back on its queue, so the
// next tick re-scores them — a transient error never silently drops pending
// classifications.
//
//wcc:tickpath reads the clock only through the injected m.now
func (m *Monitor) Tick() (TickStats, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	defer m.dropBatch()

	var stats TickStats
	collectStart := m.now()
	// The queue lengths fix the batch height, so the scratch is sized once
	// before the batch is gathered. A job queued after its shard was counted
	// stays queued for the next tick.
	var take [registryStripes]int
	n := 0
	for i, sh := range m.shards {
		sh.mu.Lock()
		take[i] = len(sh.queue)
		stats.Pending += sh.unfilled
		sh.mu.Unlock()
		n += take[i]
	}
	if n > cap(m.scratch.batch) {
		m.scratch.batch = make([]collected, n)
		m.scratch.feats = make([]float64, n*m.dim)
		m.scratch.scores = make([]drift.Score, n)
	}
	m.scratch.batch = m.scratch.batch[:n]
	batch, feats := m.scratch.batch[:0], m.scratch.feats
	for i, sh := range m.shards {
		if take[i] == 0 {
			continue
		}
		sh.mu.Lock()
		for k, js := range sh.queue[:take[i]] {
			if sh.jobs[js.id] != js {
				continue // ended or evicted while queued
			}
			if err := js.emb.FeaturesInto(feats[len(batch)*m.dim : (len(batch)+1)*m.dim]); err != nil {
				sh.dequeue(k) // js and everything behind it stay queued
				sh.mu.Unlock()
				m.requeue(batch)
				return stats, err
			}
			batch = append(batch, collected{js: js, seen: js.samples})
		}
		sh.dequeue(take[i])
		sh.mu.Unlock()
	}
	if len(batch) == 0 {
		m.ticks.Add(1)
		return stats, nil
	}
	// Stage spans record only non-empty passes: at a 10ms cadence most
	// ticks collect nothing, and those would drown the ring the sampled
	// trace endpoint serves.
	m.tracer.Observe(trace.StageCollect, collectStart, m.now().Sub(collectStart), len(batch))

	x := &mat.Matrix{Rows: len(batch), Cols: m.dim, Data: feats[:len(batch)*m.dim]}
	classifyStart := m.now()
	var probs *mat.Matrix
	var err error
	if m.batch != nil {
		probs, err = m.batch.PredictProbaBatch(x)
	} else {
		probs, err = m.cfg.Model.PredictProba(x)
	}
	if err != nil {
		m.requeue(batch)
		return stats, err
	}
	m.tracer.Observe(trace.StageClassify, classifyStart, m.now().Sub(classifyStart), len(batch))
	if probs.Rows != len(batch) {
		m.requeue(batch)
		return stats, fmt.Errorf("fleet: model returned %d rows for %d windows", probs.Rows, len(batch))
	}

	// Open-set scoring: each probability row, plus the very embedding row the
	// model consumed, against the calibration — one pass over the batch in
	// row blocks, like the model call before it, so the nearest-reference
	// search runs on every core and outside the per-job locks. Scores are a
	// pure function of their row; the predictions are untouched, so enabling
	// drift leaves in-distribution results bit-identical.
	writeStart := m.now()
	cal := m.dcal // tickMu held: coherent with drift swaps
	if cal != nil {
		scores := m.scratch.scores[:len(batch)]
		// The block function returns no error, so neither does the pass.
		_ = mat.ParallelRowBlocks(len(batch), 0, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				scores[i] = cal.Score(probs.Row(i), x.Row(i))
			}
			return nil
		})
	}

	// Write predictions back, serially: all that is left per job is copying
	// its score and publishing. jobState pointers are stable, but the dirty
	// flag and pred field belong to the shard mutex, so re-lock per shard
	// ordering doesn't matter — each job is visited once. The dirty flag is
	// retired only here, after the model call succeeded; a job that received
	// more samples while inference ran stays dirty and goes back on its
	// queue for the next tick.
	for i, c := range batch {
		row := probs.Row(i)
		best := mat.ArgMax(row)
		pred := &stream.Prediction{Class: best, Probability: row[best], Probs: row}
		if cal != nil {
			sc := m.scratch.scores[i]
			rejected := cal.Threshold.Reject(sc)
			pred.Open = &stream.OpenSet{Margin: sc.Margin, Energy: sc.Energy, FeatDist: sc.FeatDist, Rejected: rejected}
			if rejected {
				m.unknowns.Add(1)
			}
		}
		c.js.home.mu.Lock()
		old := c.js.pred
		c.js.pred = pred
		if c.js.samples == c.seen {
			c.js.dirty = false
		} else {
			c.js.home.queue = append(c.js.home.queue, c.js)
		}
		c.js.home.mu.Unlock()
		// Adapt observation, outside the job lock like event emission below:
		// the observer sees the verdict and the very feature row the model
		// consumed (borrowed — it copies what it keeps), and can never touch
		// the prediction already published above.
		if m.obs != nil {
			rejected := pred.Open != nil && pred.Open.Rejected
			m.obs.ObserveWindow(Observation{
				Job: c.js.id, Class: pred.Class, Rejected: rejected,
				Gen: m.swaps.Load(), Features: x.Row(i),
			})
		}
		// Push-plane emission, outside the job lock and after the prediction
		// has published: a stalled subscriber can therefore never delay
		// write-back, and enabling events changes no prediction bit. Only
		// transitions emit — a class change (including the first
		// classification) and a verdict flipping to unknown — so steady
		// state costs nothing and the feed carries signal, not re-scores.
		if m.evs != nil {
			if old == nil || old.Class != pred.Class {
				e := events.Event{
					Type: events.TypePrediction, Job: events.Intp(c.js.id),
					Class: events.Intp(pred.Class), Probability: pred.Probability,
				}
				if old != nil {
					e.PrevClass = events.Intp(old.Class)
				}
				m.evs.Publish(e)
			}
			if pred.Unknown() && !old.Unknown() {
				m.evs.Publish(events.Event{
					Type: events.TypeUnknown, Job: events.Intp(c.js.id),
					Class: events.Intp(pred.Class), Probability: pred.Probability,
					FeatDist: pred.Open.FeatDist,
				})
			}
		}
	}
	m.tracer.Observe(trace.StageWriteBack, writeStart, m.now().Sub(writeStart), len(batch))
	stats.Classified = len(batch)
	m.ticks.Add(1)
	m.classed.Add(uint64(len(batch)))
	return stats, nil
}

// dropBatch ends a tick's hold on the jobs it collected: the scratch is
// kept, the pointers in it are not, so a job that ends stays collectable.
func (m *Monitor) dropBatch() {
	clear(m.scratch.batch)
	m.scratch.batch = m.scratch.batch[:0]
}

// dequeue drops the first k queue entries, keeping the rest in order and
// leaving no job pointer behind in the freed tail; callers hold sh.mu.
func (sh *shard) dequeue(k int) {
	rest := copy(sh.queue, sh.queue[k:])
	clear(sh.queue[rest:])
	sh.queue = sh.queue[:rest]
}

// requeue returns a failed tick's batch to the dirty queues. The jobs are
// still dirty, so no Ingest queued them in the meantime.
func (m *Monitor) requeue(batch []collected) {
	for _, c := range batch {
		c.js.home.mu.Lock()
		c.js.home.queue = append(c.js.home.queue, c.js)
		c.js.home.mu.Unlock()
	}
}

// SwapClassifierDrift atomically installs a new model, together with its
// own drift calibration (nil disables detection), for all subsequent ticks —
// the zero-downtime refresh path for a retrained artifact rolling into a
// live fleet. The swap serialises on the tick mutex: an in-flight batched
// inference pass finishes on the old model, the new model takes effect at
// the next tick, and no tick ever mixes the two or scores one model's
// probabilities against another model's thresholds. Ingest never touches the
// model, so sample collection proceeds untouched throughout. Per-job window
// state is preserved across the swap; the new model must therefore consume
// the same feature layout (and the same scaler statistics) the fleet's
// embedders were built with. The accumulated drift histograms reset — they
// were binned against the outgoing reference — so PSI reporting restarts
// cleanly for the new generation; the Unknowns counter stays monotonic.
//
// Safe to call from any goroutine, concurrently with Ingest, Tick and the
// DriftStats read surface.
func (m *Monitor) SwapClassifierDrift(model stream.Classifier, cal *drift.Calibration) error {
	if model == nil {
		return errors.New("fleet: cannot swap in a nil model")
	}
	if err := CheckCalibration(cal, m.cfg.Sensors); err != nil {
		return err
	}
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	m.driftMu.Lock()
	m.installModel(model)
	m.dcal = cal
	for _, sh := range m.shards {
		sh.mu.Lock()
		if cal != nil {
			sh.dw = drift.NewWindow(m.cfg.Sensors, cal.Ref.Bins)
			sh.dref = cal.Ref
		} else {
			sh.dw, sh.dref = nil, nil
		}
		sh.mu.Unlock()
	}
	m.driftMu.Unlock()
	m.swaps.Add(1)
	m.publishSwap(model)
	return nil
}

// publishSwap emits the hot-swap event that advances the bus generation;
// callers hold tickMu, so the event orders exactly with the installation —
// every later tick's events carry the new generation.
func (m *Monitor) publishSwap(model stream.Classifier) {
	if m.evs != nil {
		m.evs.Publish(events.Event{Type: events.TypeSwap, Model: fmt.Sprintf("%T", model)})
	}
}

// SetEventSink attaches the push plane: prediction-change, unknown-verdict
// and swap events publish to s from the next tick on (nil detaches).
// Emission never blocks on a consumer — sinks are expected to be bounded
// and evicting, like events.Bus — and never alters a prediction;
// TestEventsEquivalenceBitIdentical pins that.
func (m *Monitor) SetEventSink(s events.Sink) {
	m.tickMu.Lock()
	m.evs = s
	m.tickMu.Unlock()
}

// SetAdaptObserver attaches the continual-learning feed: from the next tick
// on, every scored window is handed to obs at write-back (nil detaches).
// The observer runs under the tick mutex and must follow the Observer
// contract — bounded compute, never blocking — and cannot alter a
// prediction; TestAdaptEquivalenceBitIdentical (internal/adapt) pins that.
func (m *Monitor) SetAdaptObserver(obs Observer) {
	m.tickMu.Lock()
	m.obs = obs
	m.tickMu.Unlock()
}

// SetTraceRecorder attaches the per-stage span recorder ticks feed
// (collect, classify, write-back stages); nil detaches. The recorder is
// safe to share across monitors — a sharded core threads one through
// every shard.
func (m *Monitor) SetTraceRecorder(r *trace.Recorder) {
	m.tickMu.Lock()
	m.tracer = r
	m.tickMu.Unlock()
}

// installModel sets the serving model and its batched fast path; callers
// hold tickMu (New excepted: the monitor is not shared yet).
func (m *Monitor) installModel(model stream.Classifier) {
	m.cfg.Model = model
	m.batch = nil
	if b, ok := model.(BatchClassifier); ok {
		m.batch = b
	}
}

// Swaps returns the number of completed classifier swaps.
func (m *Monitor) Swaps() uint64 { return m.swaps.Load() }

// Prediction returns the most recent classification for the job, or false
// if the job is unknown or has not been classified yet. The returned
// prediction is immutable once published.
func (m *Monitor) Prediction(jobID int) (*stream.Prediction, bool) {
	sh := m.shardFor(jobID)
	sh.mu.Lock()
	js := sh.jobs[jobID]
	var p *stream.Prediction
	if js != nil {
		p = js.pred
	}
	sh.mu.Unlock()
	if p == nil {
		return nil, false
	}
	return p, true
}

// remove unregisters js; callers hold sh.mu. A queued job stays in the
// queue, where the next drain finds it unmapped and skips it.
func (sh *shard) remove(js *jobState) {
	delete(sh.jobs, js.id)
	if !js.emb.Ready() {
		sh.unfilled--
	}
}

// EndJob removes a finished job from the registry, releasing its embedder,
// and returns the job's final published prediction (nil if it was never
// classified) plus whether the job was registered at all. A sample arriving
// for the same ID afterwards re-registers it from scratch. Safe to call
// concurrently with Ingest and Tick.
func (m *Monitor) EndJob(jobID int) (*stream.Prediction, bool) {
	sh := m.shardFor(jobID)
	sh.mu.Lock()
	js := sh.jobs[jobID]
	var pred *stream.Prediction
	if js != nil {
		pred = js.pred
		sh.remove(js)
	}
	sh.mu.Unlock()
	if js == nil {
		return nil, false
	}
	m.evicted.Add(1)
	return pred, true
}

// EvictIdle removes every job whose most recent successful sample is at
// least maxIdle old (jobs that never ingested a sample successfully are
// always idle) and reports how many were evicted. It is the garbage
// collector for fleets whose producers cannot be relied on to call EndJob:
// without it the registry grows by one window-sized embedder per job ever
// seen. Safe to call concurrently with Ingest and Tick.
func (m *Monitor) EvictIdle(maxIdle time.Duration) int {
	if maxIdle < 0 {
		maxIdle = 0
	}
	cutoff := m.now().Add(-maxIdle).UnixNano()
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, js := range sh.jobs {
			if js.lastSeen <= cutoff {
				sh.remove(js)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		m.evicted.Add(uint64(n))
	}
	return n
}

// JobInfo is one job's row in a fleet Snapshot.
type JobInfo struct {
	JobID int
	// Samples counts the job's successfully ingested samples.
	Samples uint64
	// Ready reports whether the job's window has filled.
	Ready bool
	// LastSeen is when the job's most recent sample arrived (zero if none).
	LastSeen time.Time
	// Pred is the last published prediction, nil before the first. It is
	// immutable once published.
	Pred *stream.Prediction
}

// Snapshot returns a read-only, point-in-time view of every registered job,
// sorted by job ID. Shards are visited one at a time, so the view is
// consistent within a shard but jobs on different shards may be observed at
// slightly different instants relative to concurrent ingest.
func (m *Monitor) Snapshot() []JobInfo {
	var out []JobInfo
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, js := range sh.jobs {
			ji := JobInfo{JobID: id, Samples: js.samples, Ready: js.emb.Ready(), Pred: js.pred}
			if js.lastSeen != 0 {
				ji.LastSeen = time.Unix(0, js.lastSeen)
			}
			out = append(out, ji)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Window returns the per-job sliding-window length the monitor was built with.
func (m *Monitor) Window() int { return m.cfg.Window }

// Sensors returns the per-sample sensor count the monitor was built with.
func (m *Monitor) Sensors() int { return m.cfg.Sensors }

// Evictions returns the total number of jobs removed from the registry,
// whether by EndJob or EvictIdle.
func (m *Monitor) Evictions() uint64 { return m.evicted.Load() }

// NumJobs counts registered jobs across all shards.
func (m *Monitor) NumJobs() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.jobs)
		sh.mu.Unlock()
	}
	return n
}

// SamplesIngested returns the total number of successfully ingested samples.
func (m *Monitor) SamplesIngested() uint64 { return m.samples.Load() }

// Classifications returns the total number of per-job classifications
// produced by ticks so far.
func (m *Monitor) Classifications() uint64 { return m.classed.Load() }

// Ticks returns the number of completed ticks.
func (m *Monitor) Ticks() uint64 { return m.ticks.Load() }

// DriftStats reports the monitor's open-set and input-drift state. Like
// TickStats it is a mergeable snapshot: package shard sums the underlying
// histogram windows across monitors and recomputes the PSI, so a sharded
// fleet reports exactly what one monitor fed the same streams would.
type DriftStats struct {
	// Enabled reports whether the monitor carries a drift calibration;
	// every other field is zero when it does not.
	Enabled bool
	// Samples is the number of telemetry samples binned into the drift
	// histograms.
	Samples uint64
	// Unknowns counts classifications the calibrated threshold rejected
	// as unknown workloads (monotonic; re-scored jobs count each time).
	Unknowns uint64
	// SensorPSI is the per-sensor Population Stability Index of the live
	// input against the training reference.
	SensorPSI []float64
	// Score is the fleet drift score: the maximum SensorPSI.
	Score float64
}

// DriftEnabled reports whether the monitor scores predictions against a
// drift calibration.
func (m *Monitor) DriftEnabled() bool {
	m.driftMu.RLock()
	defer m.driftMu.RUnlock()
	return m.dcal != nil
}

// DriftCalibration returns the monitor's current calibration (nil when
// drift monitoring is disabled). The calibration itself is immutable;
// swaps replace the pointer.
func (m *Monitor) DriftCalibration() *drift.Calibration {
	m.driftMu.RLock()
	defer m.driftMu.RUnlock()
	return m.dcal
}

// DriftWindow merges the per-shard input histograms into one independent
// snapshot, or reports false when drift monitoring is disabled. The
// drift lock is held across the whole merge, so a concurrent
// SwapClassifierDrift can never hand it windows of mixed generations.
func (m *Monitor) DriftWindow() (*drift.Window, bool) {
	m.driftMu.RLock()
	defer m.driftMu.RUnlock()
	w, _ := m.driftWindowLocked()
	return w, w != nil
}

// driftWindowLocked merges the shard histograms; callers hold driftMu.
func (m *Monitor) driftWindowLocked() (*drift.Window, *drift.Calibration) {
	if m.dcal == nil {
		return nil, nil
	}
	out := drift.NewWindow(m.cfg.Sensors, m.dcal.Ref.Bins)
	for _, sh := range m.shards {
		sh.mu.Lock()
		out.Merge(sh.dw)
		sh.mu.Unlock()
	}
	return out, m.dcal
}

// Unknowns returns the total number of classifications rejected as
// unknown workloads (0 when drift monitoring is disabled).
func (m *Monitor) Unknowns() uint64 { return m.unknowns.Load() }

// DriftStats snapshots the open-set and input-drift state: merged
// histogram counts, per-sensor PSI against the training reference, and
// the fleet drift score. Safe to call concurrently with Ingest, Tick and
// swaps.
func (m *Monitor) DriftStats() DriftStats {
	m.driftMu.RLock()
	defer m.driftMu.RUnlock()
	w, cal := m.driftWindowLocked()
	if w == nil {
		return DriftStats{}
	}
	psi := cal.Ref.PSI(w)
	return DriftStats{
		Enabled:   true,
		Samples:   w.Samples,
		Unknowns:  m.unknowns.Load(),
		SensorPSI: psi,
		Score:     drift.FleetScore(psi),
	}
}
