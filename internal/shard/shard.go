// Package shard partitions a live fleet across independent fleet.Monitor
// shards so the serving path scales with the machine's cores instead of
// with one lock.
//
// A single fleet.Monitor serialises every batched inference pass on one
// tick mutex and walks one registry, so past a point more cores buy no
// more throughput. The Core in this package owns N monitors (default
// GOMAXPROCS) and
//
//   - routes every job to one shard by a stable hash of its ID — a job's
//     samples, predictions and lifecycle all live on that shard, so per-job
//     ordering guarantees are exactly those of a single monitor;
//   - ticks shards independently: Tick fans one synchronised pass out to
//     every shard on its own goroutine, and TickShard drives one shard
//     alone — the serving layer runs one tick loop per shard on it;
//   - aggregates reads: Snapshot merges the per-shard registries into one
//     ID-sorted view, Tick merges per-shard TickStats, and the counters
//     (SamplesIngested, Classifications, Ticks, …) sum across shards;
//   - swaps models atomically fleet-wide: SwapClassifierDrift installs one
//     classifier and its drift calibration on every shard while holding the
//     write side of a lock
//     whose read side every tick holds, so a tick anywhere observes either
//     the old model on all shards or the new one on all shards — never a
//     torn generation.
//
// Predictions are bit-identical to a single fleet.Monitor fed the same
// per-job streams: routing only changes which registry a job lives in, and
// fleet ticks score each window independently of its batch. The classifier
// is shared by all shards and must therefore be safe for concurrent
// PredictProba/PredictProbaBatch calls; the serving models (forest, xgb)
// read only fitted state and allocate per call, so they qualify.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/preprocess"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config sizes a sharded serving core.
type Config struct {
	// Window and Sensors give the per-job sliding-window shape (the
	// challenge's 540×7).
	Window  int
	Sensors int
	// Scaler holds the offline training-time statistics every job's window
	// is standardised with (see stream.NewWindowedEmbedder).
	Scaler *preprocess.StandardScaler
	// Model classifies embedded windows on every shard. Shards tick
	// concurrently, so it must tolerate concurrent predict calls.
	Model stream.Classifier
	// Shards is the monitor shard count (default GOMAXPROCS, minimum 1).
	// The count is fixed at construction; job routing depends on it.
	Shards int
	// Drift, when non-nil, enables open-set detection and input-drift
	// monitoring on every shard (see fleet.Config.Drift); DriftStats
	// merges the per-shard histograms back into one fleet-wide view.
	Drift *drift.Calibration
	// Now, when non-nil, is handed to every shard monitor as its clock
	// (see fleet.Config.Now); nil means time.Now.
	Now func() time.Time
}

// Core is a sharded fleet: N independent fleet.Monitor shards behind the
// same serving contract a single monitor offers. All methods are safe for
// concurrent use. The shards belong to the Core — driving one of the
// underlying monitors directly would bypass the swap lock that keeps
// cross-shard model generations consistent.
type Core struct {
	monitors []*fleet.Monitor
	window   int
	sensors  int
	scaler   *preprocess.StandardScaler
	drift    *drift.Calibration // nil when drift monitoring is disabled

	// swapMu orders ticks against model swaps: every inference pass holds
	// the read side, SwapClassifierDrift holds the write side while installing
	// the new model on all shards. Ticks on different shards proceed
	// concurrently (read locks share); no tick overlaps an installation.
	// Waiting for the per-shard tick goroutines and publishing the swap
	// event happen under it by design — that ordering IS the protocol.
	//wcc:coordlock tick barrier and swap publish order under this lock
	swapMu sync.RWMutex
	swaps  atomic.Uint64
	// evs is the push-plane sink for fleet-wide swap events; per-shard
	// monitors publish their prediction/unknown events directly (swap
	// events muted — the Core publishes exactly one per fleet-wide swap).
	// Guarded by swapMu alongside the swap protocol it reports on.
	evs events.Sink
}

// New validates the configuration and builds an empty sharded core.
func New(cfg Config) (*Core, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	c := &Core{
		monitors: make([]*fleet.Monitor, cfg.Shards),
		window:   cfg.Window,
		sensors:  cfg.Sensors,
		scaler:   cfg.Scaler,
		drift:    cfg.Drift,
	}
	for i := range c.monitors {
		m, err := fleet.New(fleet.Config{
			Window:  cfg.Window,
			Sensors: cfg.Sensors,
			Scaler:  cfg.Scaler,
			Model:   cfg.Model,
			Drift:   cfg.Drift,
			Now:     cfg.Now,
		})
		if err != nil {
			return nil, err
		}
		c.monitors[i] = m
	}
	return c, nil
}

// NumShards returns the monitor shard count fixed at construction.
func (c *Core) NumShards() int { return len(c.monitors) }

// ShardOf returns the shard index the job routes to. The mapping is a
// stable function of the job ID and the shard count only — the same job
// always lands on the same shard for the life of the Core.
func (c *Core) ShardOf(jobID int) int {
	return int(JobHash(jobID) % uint64(len(c.monitors)))
}

// JobHash is the stable job-routing hash — the splitmix64 finalizer, so
// adjacent IDs spread uniformly. It is shared by the in-process shard
// router and the cluster's node router (internal/cluster): both layers
// partition the same keyspace, one hash, two moduli.
func JobHash(jobID int) uint64 {
	h := uint64(jobID)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Ingest feeds one telemetry sample for the given job to the job's shard,
// creating the job there on first sight. Safe for concurrent use from any
// number of goroutines, including concurrently with ticks and swaps.
func (c *Core) Ingest(jobID int, sample []float64) error {
	return c.monitors[c.ShardOf(jobID)].Ingest(jobID, sample)
}

// Tick runs one synchronised inference pass over the whole fleet: every
// shard ticks on its own goroutine, and the per-shard TickStats are merged.
// A shard error does not stop the other shards; the joined errors are
// returned alongside the stats of the shards that succeeded. The model
// generation is consistent across the pass — a concurrent
// SwapClassifierDrift takes effect entirely before or entirely after it.
//
//wcc:tickpath the per-monitor clocks are injected at construction
func (c *Core) Tick() (fleet.TickStats, error) {
	c.swapMu.RLock()
	defer c.swapMu.RUnlock()
	stats := make([]fleet.TickStats, len(c.monitors))
	errs := make([]error, len(c.monitors))
	var wg sync.WaitGroup
	for i, m := range c.monitors {
		wg.Add(1)
		go func(i int, m *fleet.Monitor) {
			defer wg.Done()
			stats[i], errs[i] = m.Tick()
		}(i, m)
	}
	wg.Wait()
	return mergeTickStats(stats), errors.Join(errs...)
}

// TickShard runs one inference pass over a single shard. Different shards
// may tick concurrently; the HTTP serving layer's per-shard tick loops are
// built on this and avoid the whole-fleet barrier of Tick.
//
//wcc:tickpath the per-monitor clocks are injected at construction
func (c *Core) TickShard(i int) (fleet.TickStats, error) {
	if i < 0 || i >= len(c.monitors) {
		return fleet.TickStats{}, fmt.Errorf("shard: no shard %d (have %d)", i, len(c.monitors))
	}
	c.swapMu.RLock()
	defer c.swapMu.RUnlock()
	return c.monitors[i].Tick()
}

// mergeTickStats sums per-shard tick stats into one fleet-wide view.
func mergeTickStats(stats []fleet.TickStats) fleet.TickStats {
	var out fleet.TickStats
	for _, st := range stats {
		out.Classified += st.Classified
		out.Pending += st.Pending
	}
	return out
}

// SwapClassifierDrift atomically installs a new model together with its own
// drift calibration (nil disables detection) on every shard — the fleet-wide
// zero-downtime refresh. It holds the write side of the swap lock for the
// whole installation, so no inference pass anywhere overlaps it: every tick,
// on every shard, scores with either the old model or the new one, never a
// mix, and never one model's probabilities against another model's
// thresholds. Ingest never touches the model and proceeds untouched
// throughout. Per-job window state is preserved; the new model must consume
// the same feature layout (and scaler statistics) the shards' embedders were
// built with. Per-shard drift histograms reset for the new generation.
func (c *Core) SwapClassifierDrift(model stream.Classifier, cal *drift.Calibration) error {
	if model == nil {
		return errors.New("shard: cannot swap in a nil model")
	}
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	for _, m := range c.monitors {
		// Validation (nil model, calibration shape) runs before any
		// monitor mutates and is identical across shards, so only the
		// first iteration can fail — the loop never strands the fleet on
		// mixed generations.
		if err := m.SwapClassifierDrift(model, cal); err != nil {
			return err
		}
	}
	c.drift = cal
	c.swaps.Add(1)
	c.publishSwap(model)
	return nil
}

// publishSwap emits the single fleet-wide swap event; callers hold the
// swapMu write side, so the event orders exactly with the installation —
// no shard ticks between the last install and the generation advancing.
func (c *Core) publishSwap(model stream.Classifier) {
	if c.evs != nil {
		c.evs.Publish(events.Event{Type: events.TypeSwap, Model: fmt.Sprintf("%T", model)})
	}
}

// muteSwaps passes a shard monitor's events through to the shared sink but
// drops its swap events: the Core installs one model on N shards and must
// publish exactly one swap event (and advance the bus generation exactly
// once), after every shard carries the new model.
type muteSwaps struct{ sink events.Sink }

func (m muteSwaps) Publish(e events.Event) {
	if e.Type == events.TypeSwap {
		return
	}
	m.sink.Publish(e)
}

// SetEventSink attaches the push plane fleet-wide: every shard's
// prediction and unknown events publish to s, and the Core publishes one
// swap event per fleet-wide swap (per-shard swap events are muted so
// subscribers never see a torn N-event generation). nil detaches.
func (c *Core) SetEventSink(s events.Sink) {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	c.evs = s
	for _, m := range c.monitors {
		if s == nil {
			m.SetEventSink(nil)
		} else {
			m.SetEventSink(muteSwaps{sink: s})
		}
	}
}

// SetAdaptObserver threads one continual-learning observer through every
// shard's tick write-back (nil detaches): the observer sees every scored
// window fleet-wide, tagged with the shard monitor's swap generation. The
// observer must be concurrency-safe — shards ticking in parallel call it
// concurrently — on top of the fleet.Observer contract (bounded compute,
// never blocking, never altering a prediction).
func (c *Core) SetAdaptObserver(obs fleet.Observer) {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	for _, m := range c.monitors {
		m.SetAdaptObserver(obs)
	}
}

// SetTraceRecorder threads one span recorder through every shard's tick
// path; the recorder is concurrency-safe, so shards ticking in parallel
// feed the same stage histograms. nil detaches.
func (c *Core) SetTraceRecorder(r *trace.Recorder) {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	for _, m := range c.monitors {
		m.SetTraceRecorder(r)
	}
}

// Swaps returns the number of completed fleet-wide classifier swaps.
func (c *Core) Swaps() uint64 { return c.swaps.Load() }

// Prediction returns the most recent classification for the job from its
// shard, or false if the job is unknown or not yet classified.
func (c *Core) Prediction(jobID int) (*stream.Prediction, bool) {
	return c.monitors[c.ShardOf(jobID)].Prediction(jobID)
}

// EndJob removes a finished job from its shard and returns the job's final
// published prediction (nil if it was never classified) plus whether the
// job was registered at all.
func (c *Core) EndJob(jobID int) (*stream.Prediction, bool) {
	return c.monitors[c.ShardOf(jobID)].EndJob(jobID)
}

// EvictIdle removes every job, on every shard, whose most recent
// successful sample is at least maxIdle old, and reports how many were
// evicted. Safe to call concurrently with ingest and ticks.
func (c *Core) EvictIdle(maxIdle time.Duration) int {
	n := 0
	for _, m := range c.monitors {
		n += m.EvictIdle(maxIdle)
	}
	return n
}

// Snapshot merges every shard's read-only registry view into one slice
// sorted by job ID. Each shard's rows are internally consistent; rows from
// different shards may be observed at slightly different instants relative
// to concurrent ingest, exactly as a single monitor's registry shards are.
func (c *Core) Snapshot() []fleet.JobInfo {
	var out []fleet.JobInfo
	for _, m := range c.monitors {
		out = append(out, m.Snapshot()...)
	}
	// Shards hold disjoint jobs, so a plain re-sort of the concatenation
	// is a correct merge.
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Stats is one shard's counters, for shard-labelled observability.
type Stats struct {
	// Jobs is the shard's currently registered job count.
	Jobs int
	// Samples counts the shard's successfully ingested samples.
	Samples uint64
	// Classifications counts per-job classifications the shard's ticks
	// produced.
	Classifications uint64
	// Ticks counts the shard's completed inference passes.
	Ticks uint64
	// Evictions counts jobs removed from the shard (EndJob or EvictIdle).
	Evictions uint64
}

// ShardStats returns one Stats row per shard, indexed by shard.
func (c *Core) ShardStats() []Stats {
	out := make([]Stats, len(c.monitors))
	for i, m := range c.monitors {
		out[i] = Stats{
			Jobs:            m.NumJobs(),
			Samples:         m.SamplesIngested(),
			Classifications: m.Classifications(),
			Ticks:           m.Ticks(),
			Evictions:       m.Evictions(),
		}
	}
	return out
}

// Window returns the per-job sliding-window length the core was built with.
func (c *Core) Window() int { return c.window }

// Sensors returns the per-sample sensor count the core was built with.
func (c *Core) Sensors() int { return c.sensors }

// Scaler returns the training-time statistics every job's embedder was
// built with. Per-job window state survives a model swap, so a replacement
// model must have been trained against exactly these.
func (c *Core) Scaler() *preprocess.StandardScaler { return c.scaler }

// NumJobs counts registered jobs across all shards.
func (c *Core) NumJobs() int {
	n := 0
	for _, m := range c.monitors {
		n += m.NumJobs()
	}
	return n
}

// SamplesIngested sums successfully ingested samples across all shards.
func (c *Core) SamplesIngested() uint64 {
	var n uint64
	for _, m := range c.monitors {
		n += m.SamplesIngested()
	}
	return n
}

// Classifications sums per-job classifications across all shards.
func (c *Core) Classifications() uint64 {
	var n uint64
	for _, m := range c.monitors {
		n += m.Classifications()
	}
	return n
}

// Ticks sums completed per-shard inference passes across all shards; one
// whole-fleet Tick therefore advances it by NumShards.
func (c *Core) Ticks() uint64 {
	var n uint64
	for _, m := range c.monitors {
		n += m.Ticks()
	}
	return n
}

// Evictions sums jobs removed from the registries across all shards.
func (c *Core) Evictions() uint64 {
	var n uint64
	for _, m := range c.monitors {
		n += m.Evictions()
	}
	return n
}

// Unknowns sums classifications rejected as unknown workloads across all
// shards (0 when drift monitoring is disabled).
func (c *Core) Unknowns() uint64 {
	var n uint64
	for _, m := range c.monitors {
		n += m.Unknowns()
	}
	return n
}

// DriftStats merges the per-shard drift state into one fleet-wide view,
// exactly as Tick merges TickStats: the shards' histogram windows are
// summed first and the per-sensor PSI recomputed on the merged counts
// (PSI is not additive, so averaging per-shard PSIs would misreport), so
// the result is bit-identical to a single monitor fed the same streams.
// The read side of the swap lock keeps the merge on one calibration
// generation.
func (c *Core) DriftStats() fleet.DriftStats {
	c.swapMu.RLock()
	defer c.swapMu.RUnlock()
	if c.drift == nil {
		return fleet.DriftStats{}
	}
	merged := drift.NewWindow(c.sensors, c.drift.Ref.Bins)
	for _, m := range c.monitors {
		if w, ok := m.DriftWindow(); ok {
			merged.Merge(w)
		}
	}
	psi := c.drift.Ref.PSI(merged)
	return fleet.DriftStats{
		Enabled:   true,
		Samples:   merged.Samples,
		Unknowns:  c.Unknowns(),
		SensorPSI: psi,
		Score:     drift.FleetScore(psi),
	}
}
