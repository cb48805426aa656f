// Package fleet scales the single-job stream monitor to datacenter scale:
// thousands of jobs streaming telemetry concurrently, classified together.
//
// The paper frames workload classification as something an operator runs
// continuously over live telemetry from the whole machine (§VI); package
// stream provides the per-job building block (an incrementally maintained
// sliding-window covariance embedding plus a classifier), and this package
// provides the serving core around it — one type, Monitor:
//
//   - jobs are split over Config.Shards partitions by a stable hash of the
//     job ID (JobHash). A partition is the unit of inference: it has its own
//     tick mutex, tick scratch and counters, so partitions tick concurrently
//     (TickShard drives one, Tick all of them) and a job's samples,
//     predictions and lifecycle all live on one partition. "Shard" in this
//     repository always means a partition;
//   - inside a partition the registry of per-job WindowedEmbedders is spread
//     over lock stripes — job IDs hash to stripes, each guarded by its own
//     mutex, so concurrent ingest from many collector goroutines contends
//     only within a stripe;
//   - an ingest path (Ingest) accepting one telemetry sample for any job,
//     creating the job's embedder on first sight and, when the sample leaves
//     a full window unscored, appending the job to its stripe's dirty queue;
//   - a batched inference engine (Tick, TickShard) that drains those queues
//     into a single N×F feature matrix and runs one batched PredictProba
//     call instead of N single-row calls — a tick costs what it classifies,
//     not what is resident, and a failed tick puts what it drained back;
//   - a zero-downtime model refresh (SwapClassifierDrift) that installs a
//     retrained classifier and its drift calibration between inference
//     ticks — in-flight batches finish on the old model, ingest never
//     stalls, and no tick on any partition mixes two models;
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
// What is being served — the model, its batched path, the drift
// calibration, the event sink, the trace recorder, the adapt observer and
// the swap count — is stored once on the Monitor, whatever the partition
// count, under one RWMutex: ticks and the drift read surface hold its read
// side, swaps and the Set* attach points its write side.
//
// Models that implement BatchClassifier (forest, xgb) get their worker-pool
// batched path; any stream.Classifier still works via one multi-row
// PredictProba call. Either way per-row results are bit-identical to what a
// per-job stream.Monitor would produce, and P partitions publish exactly
// what one would: routing only changes which registry a job lives in, and
// a tick scores each window independently of its batch. Partitions tick
// concurrently against the one model, which must therefore be safe for
// concurrent PredictProba/PredictProbaBatch calls; the serving models read
// only fitted state and allocate per call, so they qualify.
//
// Package shard keeps the names the frozen benchmark uses for this type, and
// package server puts the HTTP API in front of it.
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
// shadow-scores candidates from. Calls happen inside the tick, under the
// partition's tick mutex and the read side of the swap lock, and partitions
// ticking in parallel call concurrently, so an implementation must be
// concurrency-safe, bounded pure compute: no blocking operations, no calls
// back into the Monitor, and the same non-blocking discipline the events
// bus pins. Observing never alters a prediction bit.
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
	// BatchClassifier, ticks use the batched path. Partitions tick
	// concurrently, so it must tolerate concurrent predict calls.
	Model stream.Classifier
	// Shards is the partition count (default 1; server.NewCore defaults it
	// to GOMAXPROCS). The count is fixed at construction; job routing depends
	// on it.
	Shards int
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

// registryStripes is the lock-stripe count of one partition's registry: the
// lock granularity of concurrent ingest. DESIGN.md §9 has the measurement
// behind the value.
const registryStripes = 32

// jobState is one job's slot in the registry, guarded by its stripe's mutex.
type jobState struct {
	id   int     // the job's fleet ID, for event emission at write-back
	home *stripe // owning stripe, for lock re-acquisition at write-back
	emb  *stream.WindowedEmbedder
	// dirty: the window is full and holds samples no prediction reflects yet.
	// A dirty job is in home.queue exactly once, or in the running tick's
	// batch — the flag is what keeps it to one entry.
	dirty    bool
	pred     *stream.Prediction
	samples  uint64
	lastSeen int64 // UnixNano of the last successful Ingest (0 if none)
}

// stripe is one lock stripe of a partition's registry.
type stripe struct {
	mu   sync.Mutex
	jobs map[int]*jobState
	// queue holds the stripe's dirty jobs in the order they turned dirty:
	// Ingest appends, the partition's tick drains. Removal leaves a queued
	// job in place; the drain skips entries the registry no longer maps.
	queue []*jobState
	// unfilled counts registered jobs whose window has not filled
	// (TickStats.Pending), kept at create, fill and remove.
	unfilled int
	// dw accumulates the stripe's input-drift histogram counts against the
	// reference dref (both nil when drift monitoring is disabled); guarded
	// by mu like the registry, and replaced together on a swap.
	dw   *drift.Window
	dref *drift.Reference
}

// partition is the unit of inference: the jobs ShardOf routes to it, the
// mutex that serialises its ticks, the tick's working memory and the
// counters ShardStats reports. It holds nothing about what is being served —
// that lives once on the Monitor.
type partition struct {
	stripes []*stripe
	// tickMu serialises the partition's ticks and guards scratch. Event
	// publishes are deliberately ordered under it — the bus is non-blocking
	// by design (events.Bus.Publish drops rather than waits).
	//wcc:coordlock write-back publishes inside the tick it reports on
	tickMu sync.Mutex
	// scratch is the tick's working memory, reused across ticks: the
	// collected jobs, their N×F feature rows and their open-set scores.
	// Nothing keeps it past the tick — the model returns fresh probabilities
	// and an Observer's Features are borrowed — and the job pointers are
	// cleared when the tick ends. It only grows, to the largest batch seen:
	// at worst every resident job at once, 28 floats of features (plus 48
	// bytes) each, under 1 % of that job's 30 KB ring.
	scratch struct {
		batch  []collected
		feats  []float64
		scores []drift.Score
	}
	samples atomic.Uint64
	ticks   atomic.Uint64
	classed atomic.Uint64
	evicted atomic.Uint64
}

// Monitor is a fleet-wide live classifier. All methods are safe for
// concurrent use: Ingest from any number of goroutines, concurrently with
// ticks, swaps and reads; ticks of one partition serialise internally,
// ticks of different partitions run in parallel.
type Monitor struct {
	window  int
	sensors int
	dim     int
	scaler  *preprocess.StandardScaler
	now     func() time.Time // injected clock (Config.Now, default time.Now)
	parts   []*partition

	// mu is the one swap lock, and it guards everything that describes what
	// is being served (the fields below it). Every tick holds the read side
	// for the whole pass, as do DriftStats reads; SwapClassifierDrift and
	// the Set* attach points hold the write side. So partitions tick
	// concurrently (read locks share), no tick anywhere overlaps an
	// installation, and a drift read never merges histograms of two
	// generations. Waiting for the per-partition tick goroutines and
	// publishing the swap event happen under it by design — the bus is
	// non-blocking, and that ordering IS the protocol: the swap event
	// publishes exactly when the installation becomes visible.
	//wcc:coordlock tick barrier and swap publish order under this lock
	mu     sync.RWMutex
	model  stream.Classifier
	batch  BatchClassifier    // model's batched path, nil when it has none
	dcal   *drift.Calibration // nil = open-set detection disabled
	evs    events.Sink        // nil = push plane detached
	tracer *trace.Recorder    // nil = no stage spans
	obs    Observer           // nil = adapt feed detached

	swaps    atomic.Uint64
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
		window:  cfg.Window,
		sensors: cfg.Sensors,
		dim:     preprocess.CovarianceDim(cfg.Sensors),
		scaler:  cfg.Scaler,
		now:     cfg.Now,
		parts:   make([]*partition, max(cfg.Shards, 1)),
	}
	if m.now == nil {
		m.now = time.Now
	}
	for i := range m.parts {
		p := &partition{stripes: make([]*stripe, registryStripes)}
		for k := range p.stripes {
			p.stripes[k] = &stripe{jobs: make(map[int]*jobState)}
		}
		m.parts[i] = p
	}
	m.install(cfg.Model, cfg.Drift)
	return m, nil
}

// install sets the serving generation — the model, its batched fast path,
// the calibration — and starts every stripe's input histogram afresh against
// the calibration's reference. Callers hold the write side of mu (New
// excepted: the monitor is not shared yet).
func (m *Monitor) install(model stream.Classifier, cal *drift.Calibration) {
	m.model = model
	m.batch, _ = model.(BatchClassifier)
	m.dcal = cal
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) {
			st.dw, st.dref = nil, nil
			if cal != nil {
				st.dw = drift.NewWindow(m.sensors, cal.Ref.Bins)
				st.dref = cal.Ref
			}
		})
	}
}

// eachStripe calls f on every stripe of the partition in turn, holding the
// stripe's mutex around the call.
func (p *partition) eachStripe(f func(st *stripe)) {
	for _, st := range p.stripes {
		st.mu.Lock()
		f(st)
		st.mu.Unlock()
	}
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

// JobHash is the stable job-routing hash — the splitmix64 finalizer, so
// adjacent IDs spread uniformly. It is shared by the in-process partition
// router (ShardOf) and the cluster's node router (internal/cluster): both
// layers partition the same keyspace, one hash, two moduli.
func JobHash(jobID int) uint64 {
	h := uint64(jobID)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NumShards returns the partition count fixed at construction.
func (m *Monitor) NumShards() int { return len(m.parts) }

// ShardOf returns the index of the partition the job routes to. The mapping
// is a stable function of the job ID and the partition count only — the same
// job always lands on the same partition for the life of the Monitor.
func (m *Monitor) ShardOf(jobID int) int {
	return int(JobHash(jobID) % uint64(len(m.parts)))
}

// stripeFor returns the job's partition and, inside it, the lock stripe its
// ID hashes to. Sequential IDs are mixed so bursts of adjacent jobs do not
// all land on neighbouring stripes.
func (m *Monitor) stripeFor(jobID int) (*partition, *stripe) {
	p := m.parts[m.ShardOf(jobID)]
	h := uint64(jobID) * 0x9e3779b97f4a7c15
	return p, p.stripes[(h>>32)%uint64(len(p.stripes))]
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
	if err := CheckSample(sample, m.sensors); err != nil {
		return err
	}
	p, st := m.stripeFor(jobID)
	st.mu.Lock()
	js := st.jobs[jobID]
	if js == nil {
		emb, err := stream.NewWindowedEmbedder(m.window, m.sensors, m.scaler)
		if err != nil {
			st.mu.Unlock()
			return err
		}
		js = &jobState{id: jobID, home: st, emb: emb}
		st.jobs[jobID] = js
		st.unfilled++
	}
	filled := js.emb.Ready()
	err := js.emb.Push(sample)
	if err == nil {
		if js.emb.Ready() {
			if !filled {
				st.unfilled--
			}
			if !js.dirty {
				js.dirty = true
				st.queue = append(st.queue, js)
			}
		}
		js.samples++
		js.lastSeen = m.now().UnixNano()
		if st.dw != nil {
			st.dw.Add(st.dref, sample)
		}
	}
	st.mu.Unlock()
	if err == nil {
		p.samples.Add(1)
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

// Tick runs one synchronised inference pass over the whole fleet: partition
// 0 ticks on the caller and the others each on their own goroutine, and the
// per-partition TickStats are summed. A partition's error does not stop the
// others; the joined errors are returned alongside the stats of the
// partitions that succeeded. The model generation is consistent across the
// pass — a concurrent SwapClassifierDrift takes effect entirely before or
// entirely after it. A one-partition monitor never leaves the caller and,
// with nothing queued, allocates nothing.
//
//wcc:tickpath the clock is only ever the injected m.now
func (m *Monitor) Tick() (TickStats, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.parts) == 1 {
		return m.tick(m.parts[0])
	}
	stats := make([]TickStats, len(m.parts))
	errs := make([]error, len(m.parts))
	var wg sync.WaitGroup
	for i, p := range m.parts[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i+1], errs[i+1] = m.tick(p)
		}()
	}
	stats[0], errs[0] = m.tick(m.parts[0])
	wg.Wait()
	var sum TickStats
	for _, st := range stats {
		sum.Classified += st.Classified
		sum.Pending += st.Pending
	}
	return sum, errors.Join(errs...)
}

// TickShard runs one inference pass over a single partition. Different
// partitions may tick concurrently; the HTTP serving layer's per-partition
// tick loops are built on this and avoid the whole-fleet barrier of Tick.
//
//wcc:tickpath the clock is only ever the injected m.now
func (m *Monitor) TickShard(i int) (TickStats, error) {
	if i < 0 || i >= len(m.parts) {
		return TickStats{}, fmt.Errorf("fleet: no shard %d (have %d)", i, len(m.parts))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tick(m.parts[i])
}

// tick is one partition's batched inference pass; callers hold the read
// side of m.mu, so the serving generation cannot change under it. The
// stripes' dirty queues are drained, every queued job still registered is
// embedded into one N×F matrix, and a single (batched, when available) model
// call scores it. A tick costs what it classifies; with nothing queued it
// takes the stripe locks once and allocates nothing. Concurrent Ingest
// during a tick is safe; a job dirtied after its stripe was counted, or
// while inference ran, is scored by the next tick. A tick that fails
// (embedding error, model error, row-count mismatch) puts every job it
// drained back on its queue, so the next tick re-scores them — a transient
// error never silently drops pending classifications.
//
//wcc:tickpath reads the clock only through the injected m.now
func (m *Monitor) tick(p *partition) (TickStats, error) {
	p.tickMu.Lock()
	defer p.tickMu.Unlock()
	defer p.dropBatch()

	var stats TickStats
	collectStart := m.now()
	// The queue lengths fix the batch height, so the scratch is sized once
	// before the batch is gathered. A job queued after its stripe was counted
	// stays queued for the next tick.
	var take [registryStripes]int
	n := 0
	for i, st := range p.stripes {
		st.mu.Lock()
		take[i] = len(st.queue)
		stats.Pending += st.unfilled
		st.mu.Unlock()
		n += take[i]
	}
	if n > cap(p.scratch.batch) {
		p.scratch.batch = make([]collected, n)
		p.scratch.feats = make([]float64, n*m.dim)
		p.scratch.scores = make([]drift.Score, n)
	}
	p.scratch.batch = p.scratch.batch[:n]
	batch, feats := p.scratch.batch[:0], p.scratch.feats
	for i, st := range p.stripes {
		if take[i] == 0 {
			continue
		}
		st.mu.Lock()
		for k, js := range st.queue[:take[i]] {
			if st.jobs[js.id] != js {
				continue // ended or evicted while queued
			}
			if err := js.emb.FeaturesInto(feats[len(batch)*m.dim : (len(batch)+1)*m.dim]); err != nil {
				st.dequeue(k) // js and everything behind it stay queued
				st.mu.Unlock()
				requeue(batch)
				return stats, err
			}
			batch = append(batch, collected{js: js, seen: js.samples})
		}
		st.dequeue(take[i])
		st.mu.Unlock()
	}
	if len(batch) == 0 {
		p.ticks.Add(1)
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
		probs, err = m.model.PredictProba(x)
	}
	if err != nil {
		requeue(batch)
		return stats, err
	}
	m.tracer.Observe(trace.StageClassify, classifyStart, m.now().Sub(classifyStart), len(batch))
	if probs.Rows != len(batch) {
		requeue(batch)
		return stats, fmt.Errorf("fleet: model returned %d rows for %d windows", probs.Rows, len(batch))
	}

	// Open-set scoring: each probability row, plus the very embedding row the
	// model consumed, against the calibration — one pass over the batch in
	// row blocks, like the model call before it, so the nearest-reference
	// search runs on every core and outside the per-job locks. Scores are a
	// pure function of their row; the predictions are untouched, so enabling
	// drift leaves in-distribution results bit-identical.
	writeStart := m.now()
	cal := m.dcal
	if cal != nil {
		scores := p.scratch.scores[:len(batch)]
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
	// flag and pred field belong to the stripe mutex, so re-lock per stripe
	// ordering doesn't matter — each job is visited once. The dirty flag is
	// retired only here, after the model call succeeded; a job that received
	// more samples while inference ran stays dirty and goes back on its
	// queue for the next tick.
	for i, c := range batch {
		row := probs.Row(i)
		best := mat.ArgMax(row)
		pred := &stream.Prediction{Class: best, Probability: row[best], Probs: row}
		if cal != nil {
			sc := p.scratch.scores[i]
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
	p.ticks.Add(1)
	p.classed.Add(uint64(len(batch)))
	return stats, nil
}

// dropBatch ends a tick's hold on the jobs it collected: the scratch is
// kept, the pointers in it are not, so a job that ends stays collectable.
func (p *partition) dropBatch() {
	clear(p.scratch.batch)
	p.scratch.batch = p.scratch.batch[:0]
}

// dequeue drops the first k queue entries, keeping the rest in order and
// leaving no job pointer behind in the freed tail; callers hold st.mu.
func (st *stripe) dequeue(k int) {
	rest := copy(st.queue, st.queue[k:])
	clear(st.queue[rest:])
	st.queue = st.queue[:rest]
}

// requeue returns a failed tick's batch to the dirty queues. The jobs are
// still dirty, so no Ingest queued them in the meantime.
func requeue(batch []collected) {
	for _, c := range batch {
		c.js.home.mu.Lock()
		c.js.home.queue = append(c.js.home.queue, c.js)
		c.js.home.mu.Unlock()
	}
}

// SwapClassifierDrift atomically installs a new model, together with its
// own drift calibration (nil disables detection), for all subsequent ticks —
// the fleet-wide zero-downtime refresh path for a retrained artifact rolling
// into a live fleet. It holds the write side of the swap lock for the whole
// installation, so no inference pass anywhere overlaps it: an in-flight
// batch finishes on the old model, and every tick, on every partition,
// scores with either the old model or the new one, never a mix, and never
// one model's probabilities against another model's thresholds. Ingest never
// touches the model, so sample collection proceeds untouched throughout.
// Per-job window state is preserved across the swap; the new model must
// therefore consume the same feature layout (and the same scaler statistics)
// the fleet's embedders were built with. The accumulated drift histograms
// reset — they were binned against the outgoing reference — so PSI reporting
// restarts cleanly for the new generation; the Unknowns counter stays
// monotonic.
//
// Safe to call from any goroutine, concurrently with Ingest, ticks and
// DriftStats.
func (m *Monitor) SwapClassifierDrift(model stream.Classifier, cal *drift.Calibration) error {
	if model == nil {
		return errors.New("fleet: cannot swap in a nil model")
	}
	if err := CheckCalibration(cal, m.sensors); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.install(model, cal)
	m.swaps.Add(1)
	m.publishSwap(model)
	return nil
}

// publishSwap emits the one hot-swap event that advances the bus generation;
// callers hold the write side of m.mu, so the event orders exactly with the
// installation — no partition ticks between the install and the generation
// advancing, and every later tick's events carry the new generation.
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
	m.mu.Lock()
	m.evs = s
	m.mu.Unlock()
}

// SetAdaptObserver attaches the continual-learning feed: from the next tick
// on, every scored window on every partition is handed to obs at write-back
// (nil detaches). The observer must follow the Observer contract —
// concurrency-safe, bounded compute, never blocking — and cannot alter a
// prediction; TestAdaptEquivalenceBitIdentical (internal/adapt) pins that.
func (m *Monitor) SetAdaptObserver(obs Observer) {
	m.mu.Lock()
	m.obs = obs
	m.mu.Unlock()
}

// SetTraceRecorder attaches the per-stage span recorder ticks feed
// (collect, classify, write-back stages); nil detaches. The recorder is
// concurrency-safe, so partitions ticking in parallel feed the same stage
// histograms.
func (m *Monitor) SetTraceRecorder(r *trace.Recorder) {
	m.mu.Lock()
	m.tracer = r
	m.mu.Unlock()
}

// Swaps returns the number of completed classifier swaps.
func (m *Monitor) Swaps() uint64 { return m.swaps.Load() }

// Prediction returns the most recent classification for the job, or false
// if the job is unknown or has not been classified yet. The returned
// prediction is immutable once published.
func (m *Monitor) Prediction(jobID int) (*stream.Prediction, bool) {
	_, st := m.stripeFor(jobID)
	st.mu.Lock()
	js := st.jobs[jobID]
	var p *stream.Prediction
	if js != nil {
		p = js.pred
	}
	st.mu.Unlock()
	if p == nil {
		return nil, false
	}
	return p, true
}

// remove unregisters js; callers hold st.mu. A queued job stays in the
// queue, where the next drain finds it unmapped and skips it.
func (st *stripe) remove(js *jobState) {
	delete(st.jobs, js.id)
	if !js.emb.Ready() {
		st.unfilled--
	}
}

// EndJob removes a finished job from the registry, releasing its embedder,
// and returns the job's final published prediction (nil if it was never
// classified) plus whether the job was registered at all. A sample arriving
// for the same ID afterwards re-registers it from scratch. Safe to call
// concurrently with Ingest and ticks.
func (m *Monitor) EndJob(jobID int) (*stream.Prediction, bool) {
	p, st := m.stripeFor(jobID)
	st.mu.Lock()
	js := st.jobs[jobID]
	var pred *stream.Prediction
	if js != nil {
		pred = js.pred
		st.remove(js)
	}
	st.mu.Unlock()
	if js == nil {
		return nil, false
	}
	p.evicted.Add(1)
	return pred, true
}

// EvictIdle removes every job whose most recent successful sample is at
// least maxIdle old (jobs that never ingested a sample successfully are
// always idle) and reports how many were evicted. It is the garbage
// collector for fleets whose producers cannot be relied on to call EndJob:
// without it the registry grows by one window-sized embedder per job ever
// seen. Safe to call concurrently with Ingest and ticks.
func (m *Monitor) EvictIdle(maxIdle time.Duration) int {
	if maxIdle < 0 {
		maxIdle = 0
	}
	cutoff := m.now().Add(-maxIdle).UnixNano()
	total := 0
	for _, p := range m.parts {
		n := 0
		p.eachStripe(func(st *stripe) {
			for _, js := range st.jobs {
				if js.lastSeen <= cutoff {
					st.remove(js)
					n++
				}
			}
		})
		p.evicted.Add(uint64(n))
		total += n
	}
	return total
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
// sorted by job ID. Stripes are visited one at a time, so the view is
// consistent within a stripe but jobs on different stripes may be observed
// at slightly different instants relative to concurrent ingest.
func (m *Monitor) Snapshot() []JobInfo {
	var out []JobInfo
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) {
			for id, js := range st.jobs {
				ji := JobInfo{JobID: id, Samples: js.samples, Ready: js.emb.Ready(), Pred: js.pred}
				if js.lastSeen != 0 {
					ji.LastSeen = time.Unix(0, js.lastSeen)
				}
				out = append(out, ji)
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Window returns the per-job sliding-window length the monitor was built with.
func (m *Monitor) Window() int { return m.window }

// Sensors returns the per-sample sensor count the monitor was built with.
func (m *Monitor) Sensors() int { return m.sensors }

// Scaler returns the training-time statistics every job's embedder was
// built with. Per-job window state survives a model swap, so a replacement
// model must have been trained against exactly these.
func (m *Monitor) Scaler() *preprocess.StandardScaler { return m.scaler }

// ShardStats is one partition's counters, for shard-labelled observability.
type ShardStats struct {
	// Jobs is the partition's currently registered job count.
	Jobs int
	// Samples counts the partition's successfully ingested samples.
	Samples uint64
	// Classifications counts per-job classifications the partition's ticks
	// produced.
	Classifications uint64
	// Ticks counts the partition's completed inference passes.
	Ticks uint64
	// Evictions counts jobs removed from the partition (EndJob or EvictIdle).
	Evictions uint64
}

// ShardStats returns one row per partition, indexed like TickShard; the
// fleet-wide counters below are its column sums.
func (m *Monitor) ShardStats() []ShardStats {
	out := make([]ShardStats, len(m.parts))
	for i, p := range m.parts {
		out[i] = ShardStats{
			Jobs:            p.numJobs(),
			Samples:         p.samples.Load(),
			Classifications: p.classed.Load(),
			Ticks:           p.ticks.Load(),
			Evictions:       p.evicted.Load(),
		}
	}
	return out
}

// numJobs counts the partition's registered jobs.
func (p *partition) numJobs() int {
	n := 0
	p.eachStripe(func(st *stripe) { n += len(st.jobs) })
	return n
}

// NumJobs counts registered jobs across all partitions.
func (m *Monitor) NumJobs() int {
	n := 0
	for _, p := range m.parts {
		n += p.numJobs()
	}
	return n
}

// sum adds one per-partition counter up over the fleet.
func (m *Monitor) sum(counter func(*partition) *atomic.Uint64) uint64 {
	var n uint64
	for _, p := range m.parts {
		n += counter(p).Load()
	}
	return n
}

// SamplesIngested returns the total number of successfully ingested samples.
func (m *Monitor) SamplesIngested() uint64 {
	return m.sum(func(p *partition) *atomic.Uint64 { return &p.samples })
}

// Classifications returns the total number of per-job classifications
// produced by ticks so far.
func (m *Monitor) Classifications() uint64 {
	return m.sum(func(p *partition) *atomic.Uint64 { return &p.classed })
}

// Ticks returns the number of completed per-partition inference passes; one
// whole-fleet Tick therefore advances it by NumShards.
func (m *Monitor) Ticks() uint64 {
	return m.sum(func(p *partition) *atomic.Uint64 { return &p.ticks })
}

// Evictions returns the total number of jobs removed from the registry,
// whether by EndJob or EvictIdle.
func (m *Monitor) Evictions() uint64 {
	return m.sum(func(p *partition) *atomic.Uint64 { return &p.evicted })
}

// Unknowns returns the total number of classifications rejected as
// unknown workloads (0 when drift monitoring is disabled).
func (m *Monitor) Unknowns() uint64 { return m.unknowns.Load() }

// DriftStats reports the monitor's open-set and input-drift state.
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

// DriftStats snapshots the open-set and input-drift state: the stripes'
// histogram counts are summed first and the per-sensor PSI computed on the
// sum (PSI is not additive, so averaging per-partition PSIs would
// misreport), so the result is the same whatever the partition count. The
// read side of the swap lock is held across the merge, so a concurrent swap
// can never hand it windows of mixed generations. Safe to call concurrently
// with Ingest, ticks and swaps.
func (m *Monitor) DriftStats() DriftStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dcal == nil {
		return DriftStats{}
	}
	w := drift.NewWindow(m.sensors, m.dcal.Ref.Bins)
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) { w.Merge(st.dw) })
	}
	psi := m.dcal.Ref.PSI(w)
	return DriftStats{
		Enabled:   true,
		Samples:   w.Samples,
		Unknowns:  m.unknowns.Load(),
		SensorPSI: psi,
		Score:     drift.FleetScore(psi),
	}
}
