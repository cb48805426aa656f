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
//     a full window unscored, appending the job to its stripe's dirty queue,
//     and its batched form (IngestBatch), which groups a whole batch by
//     stripe and takes each stripe's lock once for it;
//   - a batched inference engine (Tick, TickShard) that drains those queues
//     (only the stripes the partition's dirty mask names) into a single N×F
//     feature matrix and runs one batched PredictProba call instead of N
//     single-row calls — a tick costs what it classifies, not what is
//     resident, and a failed tick puts what it drained back;
//   - a zero-downtime model refresh (SwapClassifierDrift) that installs a
//     retrained classifier and its drift calibration between inference
//     ticks — in-flight batches finish on the old model, ingest never
//     stalls, and no tick on any partition mixes two models;
//   - job lifecycle: EndJob releases a finished job's slot and returns its
//     final prediction, EvictIdle garbage-collects jobs whose producers
//     went away, and Snapshot gives operators a read-only, ID-sorted view
//     of every registered job;
//   - optional open-set detection (Config.Drift, see internal/drift):
//     ticks annotate every prediction with its feature distance from the
//     training support and an unknown-workload rejection flag, ingest
//     bins one sample in binEvery into per-sensor input histograms kept per
//     epoch, and DriftStats reports the fleet's PSI drift over the last
//     horizonEpochs epochs against the training-time reference — without
//     changing a single in-distribution prediction bit.
//
// What is being served — the model, its scratch-writing path, the drift
// calibration, the event sink, the trace recorder, the adapt observer and
// the swap count — is stored once on the Monitor, whatever the partition
// count, under one RWMutex: ticks and the drift read surface hold its read
// side, swaps and the Set* attach points its write side.
//
// Models that implement IntoClassifier (forest, xgb) score a tick into the
// partition's scratch; any other stream.Classifier works through one
// multi-row PredictProba call. Either way per-row results are bit-identical
// to what a per-job stream.Monitor would produce, and P partitions publish
// exactly what one would: routing only changes which registry a job lives in, and
// a tick scores each window independently of its batch. Each job keeps its
// last prediction inline and reads copy it out, so a steady tick allocates
// nothing per row. Partitions tick concurrently against the one model,
// which must therefore be safe for concurrent predict calls; the serving
// models read only fitted state, and each call writes only its own output,
// so they qualify.
//
// Package shard keeps the names the frozen benchmark uses for this type, and
// package server puts the HTTP API in front of it.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// BatchClassifier is the name the frozen benchmark/spans.go declares a
// field with; no tick looks for it, and it goes when the benchmark stops
// naming it. forest.PredictProbaBatch, an alias of PredictProba, is its one
// implementation.
type BatchClassifier interface {
	PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error)
}

// IntoClassifier is PredictProba writing into memory the caller owns
// (forest and xgb offer it): out is x.Rows×NumClasses(), and row i must equal
// row i of PredictProba bit for bit, whatever out held before. Ticks of a
// model that offers it score into their partition's scratch, so scoring
// allocates nothing per row.
type IntoClassifier interface {
	NumClasses() int
	PredictProbaBatchInto(x, out *mat.Matrix) error
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
	// IntoClassifier, ticks score into the partition's scratch through it;
	// otherwise each tick makes one PredictProba call. Partitions tick
	// concurrently, so it must tolerate concurrent predict calls.
	Model stream.Classifier
	// Shards is the partition count (default 1; server.NewCore defaults it
	// to GOMAXPROCS). The count is fixed at construction; job routing depends
	// on it.
	Shards int
	// Drift, when non-nil, enables open-set detection and input-drift
	// monitoring: every tick annotates predictions with a feature distance
	// and a rejected flag from the calibrated threshold, and one ingested
	// sample in binEvery lands in per-sensor drift histograms (DriftStats).
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

// The input-drift horizon and subsample (DESIGN.md §10 prices both). A
// stripe keeps horizonEpochs count buckets, one per epoch of 2^epochShift ns
// (137 s) of the monitor's clock, so DriftStats reads the last 18.3 minutes
// of input: a shift reads as drift within one horizon however long the fleet
// was stable before it. horizonEpochs is a power of two, so an epoch's
// bucket is a mask of it. One sample in binEvery is binned, picked by
// binned.
const (
	epochShift    = 37
	horizonEpochs = 8
	binShift      = 3
	binEvery      = 1 << binShift
	// noEpoch tags a bucket that has held no epoch since install: any epoch
	// may take it, and no horizon includes it.
	noEpoch = math.MinInt64
)

// epochOf is the drift epoch of an offset from Monitor.epoch.
func epochOf(d time.Duration) int64 { return int64(d) >> epochShift }

// jobState is one job's slot in the registry, guarded by its stripe's mutex
// except where a field says otherwise. The fields Ingest touches all lie in
// its first 48 bytes; the prediction slot and the drift certificate, which
// only ticks and reads touch, follow them.
type jobState struct {
	id       int     // the job's fleet ID, for event emission at write-back
	home     *stripe // owning stripe, for lock re-acquisition at write-back
	emb      *stream.WindowedEmbedder
	samples  uint64
	lastSeen time.Duration // the last successful Ingest, as an offset from Monitor.epoch (valid once samples > 0)
	// dirty: the window is full and holds samples no prediction reflects yet.
	// A dirty job is in home.queue exactly once, or in the running tick's
	// batch — the flag is what keeps it to one entry.
	dirty bool
	// The last published prediction lives inline, overwritten in place by
	// write-back and copied out by reads (prediction), both under the stripe
	// mutex, so publishing allocates nothing once the job has been scored.
	// probs is the job's own probability row: nil before the first
	// classification, allocated then and reused while the class count fits.
	// class indexes it; an int32, so it shares dirty's word with the flags.
	// When hasOpen the verdict is featDist and rejected, which prediction
	// turns into a stream.OpenSet on the way out.
	hasOpen  bool
	rejected bool
	class    int32
	probs    []float64
	featDist float64
	// cert is the proof the job's last drift score left for the next
	// (drift.Cert): a window moves one sample between scorings, so most
	// scores are settled by it without a search. It belongs to the
	// partition's tick, not the stripe mutex: only the scoring pass reads or
	// writes it, a job is in at most one tick's batch, and a partition's
	// ticks run one at a time. A proof about another calibration's reference
	// set is ignored, so a swap costs each job one search, never a different
	// distance.
	cert drift.Cert
}

// prediction copies the job's last published prediction out of its slot, or
// returns nil before the first classification; callers hold the stripe
// mutex. The copy is the caller's own: a later tick never changes it.
func (js *jobState) prediction() *stream.Prediction {
	if js.probs == nil {
		return nil
	}
	// One allocation holds the prediction and its verdict, one the row.
	c := &struct {
		pred stream.Prediction
		open stream.OpenSet
	}{open: stream.OpenSet{FeatDist: js.featDist, Rejected: js.rejected}}
	c.pred = stream.Prediction{
		Class: int(js.class), Probability: js.probs[js.class],
		Probs: append([]float64(nil), js.probs...),
	}
	if js.hasOpen {
		c.pred.Open = &c.open
	}
	return &c.pred
}

// stripe is one lock stripe of a partition's registry.
type stripe struct {
	mu   sync.Mutex
	jobs map[int]*jobState
	// queue holds the stripe's dirty jobs in the order they turned dirty:
	// Ingest appends, the partition's tick drains it whole in one hold of mu.
	// Removal leaves a queued job in place; the drain drops it unscored.
	// Every append goes through enqueue, which sets bit in *mask, the
	// partition's dirty mask, when the queue was empty.
	queue []*jobState
	mask  *atomic.Uint32
	bit   uint32
	// horizon holds the stripe's input-drift histogram counts against the
	// reference dbins was built from, epoch e in horizon[e mod horizonEpochs];
	// guarded by mu like the registry, and reset together on a swap. dbins
	// is the installation's one table, shared read-only by every stripe, and
	// nil when drift monitoring is disabled.
	horizon [horizonEpochs]epochCounts
	dbins   *drift.BinTable
}

// epochCounts is one horizon bucket: the counts binned in one epoch.
type epochCounts struct {
	epoch int64
	w     drift.Window
}

// bucket returns the counts to bin epoch e's samples into, or nil when
// drift monitoring is disabled or e has already left the horizon (a clock
// read that lost the race for mu by horizonEpochs epochs). A bucket still
// holding an earlier epoch, which is then out of the horizon, is zeroed in
// place first. Callers hold mu.
func (st *stripe) bucket(e int64) *drift.Window {
	if st.dbins == nil {
		return nil
	}
	b := &st.horizon[e&(horizonEpochs-1)]
	if b.epoch != e {
		if b.epoch > e {
			return nil
		}
		clear(b.w.Counts)
		b.epoch, b.w.Samples = e, 0
	}
	return &b.w
}

// partition is the unit of inference: the jobs ShardOf routes to it, the
// mutex that serialises its ticks, the tick's working memory and the
// counters ShardStats reports. It holds nothing about what is being served —
// that lives once on the Monitor.
type partition struct {
	stripes []*stripe
	// dirty has bit k set when stripe k may have queued jobs: a stripe sets
	// its bit, under its mutex, as its queue goes from empty to non-empty,
	// and the collect takes the whole mask with one Swap and visits only
	// the stripes it names. Outside a tick's collect, every stripe with a
	// queued job has its bit set; a set bit over an empty queue (a job
	// queued on a stripe the collect had already swapped out but not yet
	// drained) costs the next tick one lock and nothing else.
	dirty atomic.Uint32
	// tickMu serialises the partition's ticks and guards scratch. Event
	// publishes are deliberately ordered under it — the bus is non-blocking
	// by design (events.Bus.Publish drops rather than waits).
	//wcc:coordlock write-back publishes inside the tick it reports on
	tickMu sync.Mutex
	// scratch is the tick's working memory, reused across ticks: the
	// collected jobs, their N×F feature rows, the model's N×K probability
	// rows (an IntoClassifier's; other models return their own). Nothing
	// keeps it past the tick — write-back copies each probability row into
	// its job, and an Observer's Features are borrowed — and the job pointers
	// are cleared when the tick ends. It grows only for the largest batch yet:
	// at worst every resident job at once, 28 floats of features, 26 of
	// probabilities and 32 bytes more each, under 2 % of that job's 30 KB ring.
	scratch struct {
		batch []collected
		feats []float64
		x     mat.Matrix // the batch's view of feats
		probs mat.Matrix
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
	shape stream.Shape // checked once by New; every job's embedder is built from it
	dim   int
	now   func() time.Time // injected clock (Config.Now, default time.Now)
	clock func() time.Time // Config.Now as given: nil stamps lastSeen with time.Since(epoch)
	epoch time.Time        // m.now() at New; lastSeen stamps are offsets from it
	parts []*partition

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
	into   IntoClassifier     // model's scratch-writing path, or nil
	dcal   *drift.Calibration // nil = open-set detection disabled
	evs    events.Sink        // nil = push plane detached
	tracer *trace.Recorder    // nil = no stage spans
	obs    Observer           // nil = adapt feed detached

	swaps    atomic.Uint64
	unknowns atomic.Uint64
}

// New validates the configuration and returns an empty fleet monitor.
func New(cfg Config) (*Monitor, error) {
	shape, err := stream.CheckShape(cfg.Window, cfg.Sensors, cfg.Scaler)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Model == nil {
		return nil, errors.New("fleet: nil model")
	}
	if err := CheckCalibration(cfg.Drift, cfg.Sensors); err != nil {
		return nil, err
	}
	m := &Monitor{
		shape: shape,
		dim:   preprocess.CovarianceDim(cfg.Sensors),
		now:   cfg.Now,
		clock: cfg.Now,
		parts: make([]*partition, max(cfg.Shards, 1)),
	}
	if m.now == nil {
		m.now = time.Now
	}
	m.epoch = m.now()
	for i := range m.parts {
		p := &partition{stripes: make([]*stripe, registryStripes)}
		for k := range p.stripes {
			p.stripes[k] = &stripe{jobs: make(map[int]*jobState), mask: &p.dirty, bit: 1 << k}
		}
		m.parts[i] = p
	}
	m.install(cfg.Model, cfg.Drift)
	return m, nil
}

// install sets the serving generation — the model, its scratch-writing path,
// the calibration — and starts every stripe's input histograms afresh
// against the calibration's reference, through one bin table built here for
// all of them. Every bucket of the horizon is allocated here, so ingest
// never allocates one. Callers hold the write side of mu (New excepted: the
// monitor is not shared yet).
func (m *Monitor) install(model stream.Classifier, cal *drift.Calibration) {
	m.model = model
	m.into, _ = model.(IntoClassifier)
	m.dcal = cal
	var bins *drift.BinTable
	if cal != nil {
		bins = drift.NewBinTable(cal.Ref)
	}
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) {
			st.horizon, st.dbins = [horizonEpochs]epochCounts{}, bins
			if cal == nil {
				return
			}
			n := m.shape.Sensors() * cal.Ref.Bins
			counts := make([]uint64, horizonEpochs*n)
			for i := range st.horizon {
				st.horizon[i] = epochCounts{epoch: noEpoch, w: drift.Window{
					Sensors: m.shape.Sensors(), Bins: cal.Ref.Bins, Counts: counts[i*n : (i+1)*n : (i+1)*n]}}
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

// CheckCalibration is the calibration-fit check: a calibration that fails
// drift's Validate, a reference over the wrong sensor count (it would mis-bin
// every sample) or feature statistics of the wrong width (they would index
// out of the embedding row on the first scored tick) — a crafted or
// mismatched artifact must be refused, never panic serving. New and
// SwapClassifierDrift run it, and the serving gate (server.Servable) runs it
// on an artifact before a core is built or a swap is prepared, so a
// calibration is judged the same wherever it first arrives. nil (detection
// disabled) is always valid.
func CheckCalibration(cal *drift.Calibration, sensors int) error {
	if cal == nil {
		return nil
	}
	if err := cal.Validate(); err != nil {
		return err
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
// router (ShardOf, the hash modulo the partition count) and the cluster's
// node router (cluster.NodeOf, the hash's high word), so a job's node and
// its partition within the node are independent.
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
// ID hashes to.
func (m *Monitor) stripeFor(jobID int) (*partition, *stripe) {
	p := m.parts[m.ShardOf(jobID)]
	return p, p.stripes[stripeOf(jobID)]
}

// stripeOf is the index of the lock stripe the job's ID hashes to inside its
// partition. Sequential IDs are mixed so bursts of adjacent jobs do not all
// land on neighbouring stripes.
func stripeOf(jobID int) int {
	h := uint64(jobID) * 0x9e3779b97f4a7c15
	return int((h >> 32) % registryStripes)
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
// response reports for its line. Ingest and IngestBatch run it before
// touching any state; a cluster node runs it before a sample leaves for the
// job's owner, so a bad line is refused where it first arrives.
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

// sinceEpoch is the clock lastSeen stamps and eviction cutoffs read: an
// offset from the epoch New took. With the real clock it is one monotonic
// read, so a wall-clock step cannot age (or rejuvenate) every job at once.
func (m *Monitor) sinceEpoch() time.Duration {
	if m.clock != nil {
		return m.clock().Sub(m.epoch)
	}
	return time.Since(m.epoch)
}

// Ingest feeds one telemetry sample (one value per sensor) for the given
// job, creating the job's embedder on first sight. Safe for concurrent use.
// A sample CheckSample refuses is rejected before the job registers, so a
// stream of invalid samples (e.g. hostile ingest traffic behind the HTTP
// layer) cannot grow the registry or corrupt a window. IngestBatch is the
// same for many samples at once.
func (m *Monitor) Ingest(jobID int, sample []float64) error {
	if err := CheckSample(sample, m.shape.Sensors()); err != nil {
		return err
	}
	p, st := m.stripeFor(jobID)
	now := m.sinceEpoch()
	st.mu.Lock()
	err := m.add(st, st.bucket(epochOf(now)), jobID, sample, now)
	st.mu.Unlock()
	if err == nil {
		p.samples.Add(1)
	}
	return err
}

// add is the one per-sample ingest step, under st.mu, for a sample that
// passed CheckSample: it registers the job on first sight, pushes the sample
// into the job's window, queues the job when the push leaves a full window
// unscored, stamps lastSeen with now and, when binned picks it, bins the
// sample into w, the stripe's bucket for now (nil: bin nothing). Ingest and
// IngestBatch both call it; the caller counts the sample into its partition.
func (m *Monitor) add(st *stripe, w *drift.Window, jobID int, sample []float64, now time.Duration) error {
	js := st.jobs[jobID]
	if js == nil {
		js = &jobState{id: jobID, home: st, emb: m.shape.NewEmbedder()}
		st.jobs[jobID] = js
	}
	if err := js.emb.Push(sample); err != nil {
		return err
	}
	if js.emb.Ready() && !js.dirty {
		js.dirty = true
		st.enqueue(js)
	}
	js.samples++
	js.lastSeen = now
	if w != nil && binned(jobID, js.samples) {
		w.Add(st.dbins, sample)
	}
	return nil
}

// binned reports whether the drift histograms bin a job's n-th sample since
// it registered: one in binEvery, picked by the splitmix64 output for step n
// of the job's own stream, seeded with JobHash. The pick depends on nothing
// but the job and n, so Ingest, IngestBatch and any partition count bin the
// same samples. It is a hash, not a stride: n%binEvery would bin one phase
// of any signal whose period divides binEvery, and the simulator's
// training-step signals are periodic.
func binned(jobID int, n uint64) bool { return picked(JobHash(jobID), n, binShift) }

// picked is binned at one in 2^shift: step n of the splitmix64 stream seeded
// with h, kept when its top shift bits are zero.
func picked(h, n uint64, shift uint) bool {
	z := h + n*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return z>>(64-shift) == 0
}

// Sample is one telemetry sample of an ingest Batch: the job and one value
// per sensor.
type Sample struct {
	Job    int
	Values []float64
}

// SampleError is one sample IngestBatch refused: its index in
// Batch.Samples and the error Ingest would have returned for it.
type SampleError struct {
	Index int
	Err   error
}

// Batch is an ingest batch for IngestBatch, owned by its caller and reused
// from call to call: the caller fills Samples, and the rest is IngestBatch's
// scratch, grown to the largest batch yet and kept, so a steady stream of
// batches allocates nothing. A Batch serves one IngestBatch call at a time.
type Batch struct {
	Samples []Sample
	errs    []SampleError
	// slot is each sample's (partition, stripe) slot, -1 for a refused one.
	// order lists the accepted samples' indices grouped by slot, each slot's
	// in batch order. end, indexed by slot, counts the slot's samples, then
	// holds where its run in order starts, and once order is filled, where
	// it ends.
	slot  []int32
	end   []int32
	order []int32
}

// IngestBatch feeds every sample of b, as Ingest would one by one, and
// returns the refused ones, each under its index in b.Samples. The returned
// slice is b's scratch, valid until b's next call. Each sample passes
// CheckSample; the accepted ones are grouped by partition and lock stripe in
// one stable counting pass, so each job's samples arrive in batch order, and
// every stripe with samples is locked once for all of them. The clock is
// read once for the whole batch, so every job the batch touches gets the
// same lastSeen stamp and drift epoch. Only a job's own samples are
// ordered: two stripes' samples may apply in a different order than one by
// one, which nothing observable depends on (each stripe keeps its own queue
// and histograms).
// Safe for concurrent use with distinct Batches; no sample's Values are
// retained.
//
//wcc:hotpath zero allocations per call once b has held a batch as large, pinned by an AllocsPerRun gate
func (m *Monitor) IngestBatch(b *Batch) []SampleError {
	n, slots := len(b.Samples), len(m.parts)*registryStripes
	b.errs = b.errs[:0]
	b.slot = slices.Grow(b.slot[:0], n)[:n]
	b.order = slices.Grow(b.order[:0], n)[:n]
	b.end = slices.Grow(b.end[:0], slots)[:slots]
	clear(b.end)
	sensors := m.shape.Sensors()
	for i, s := range b.Samples {
		if err := CheckSample(s.Values, sensors); err != nil {
			b.errs = append(b.errs, SampleError{Index: i, Err: err})
			b.slot[i] = -1
			continue
		}
		k := int32(m.ShardOf(s.Job)*registryStripes + stripeOf(s.Job))
		b.slot[i] = k
		b.end[k]++
	}
	var next int32
	for k, c := range b.end {
		b.end[k] = next
		next += c
	}
	for i, k := range b.slot {
		if k >= 0 {
			b.order[b.end[k]] = int32(i)
			b.end[k]++
		}
	}

	now := m.sinceEpoch()
	e := epochOf(now)
	var lo int32
	for k, hi := range b.end {
		if hi == lo {
			continue
		}
		p := m.parts[k/registryStripes]
		st := p.stripes[k%registryStripes]
		var added uint64
		st.mu.Lock()
		w := st.bucket(e)
		for _, i := range b.order[lo:hi] {
			s := b.Samples[i]
			if err := m.add(st, w, s.Job, s.Values, now); err != nil {
				b.errs = append(b.errs, SampleError{Index: int(i), Err: err})
			} else {
				added++
			}
		}
		st.mu.Unlock()
		p.samples.Add(added)
		lo = hi
	}
	return b.errs
}

// TickStats reports one batched inference pass.
type TickStats struct {
	// Classified is the number of jobs scored this tick (the batch height).
	Classified int
}

// collected pairs a job selected into a tick's batch with the sample count
// observed at collection time, so write-back can tell whether new samples
// arrived while inference ran. score is the window's open-set score, set by
// the scoring pass.
type collected struct {
	js    *jobState
	seen  uint64
	score drift.Score
}

// Tick runs one synchronised inference pass over the whole fleet: partition
// 0 ticks on the caller and the others each on their own goroutine, and the
// per-partition TickStats are summed. A partition's error does not stop the
// others; the joined errors are returned alongside the stats of the
// partitions that succeeded. The model generation is consistent across the
// pass — a concurrent SwapClassifierDrift takes effect entirely before or
// entirely after it. A one-partition monitor never leaves the caller: with
// nothing queued it takes no stripe lock and allocates nothing, and a tick
// of one row block (every tick under 64 rows is one) with an
// IntoClassifier model allocates only what write-back publishes new — a
// job's first probability row, a transition event.
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
// side of m.mu, so the serving generation cannot change under it. It takes
// the partition's dirty mask in one Swap and drains the queue of each stripe
// the mask names whole, in stripe order and one hold of its lock, embeds
// every queued job still registered into one N×F matrix and scores it with
// one (batched, when available) model call. A tick costs what it classifies:
// with nothing queued it takes no stripe lock and allocates nothing, and a
// pass of one row block (model and drift alike) runs on the caller with no
// closure. A job dirtied after the tick passed its stripe, or while
// inference ran, is scored by the next tick. A failed tick (embedding error,
// model error, row-count mismatch) puts every job it drained back on its
// queue, and the mask bits of every stripe it did not drain back in the
// mask, so a transient error never drops a pending classification.
//
//wcc:tickpath reads the clock only through the injected m.now
func (m *Monitor) tick(p *partition) (TickStats, error) {
	p.tickMu.Lock()
	defer p.tickMu.Unlock()
	defer p.dropBatch()

	collectStart := m.now()
	s := &p.scratch
	// Stripes in ascending order, as the mask names them: rows keep the
	// order a walk over every stripe would give them.
	for pending := p.dirty.Swap(0); pending != 0; pending &= pending - 1 {
		st := p.stripes[bits.TrailingZeros32(pending)]
		st.mu.Lock()
		for k, js := range st.queue {
			if st.jobs[js.id] != js {
				continue // ended or evicted while queued
			}
			s.feats = slices.Grow(s.feats, m.dim)[:len(s.feats)+m.dim]
			if err := js.emb.FeaturesInto(s.feats[len(s.feats)-m.dim:]); err != nil {
				st.dequeue(k) // js and everything behind it stay queued
				// This stripe and the ones after it not drained yet keep
				// their bits.
				p.dirty.Or(pending)
				st.mu.Unlock()
				requeue(s.batch)
				return TickStats{}, err
			}
			s.batch = append(s.batch, collected{js: js, seen: js.samples})
		}
		st.dequeue(len(st.queue))
		st.mu.Unlock()
	}
	batch, feats := s.batch, s.feats
	if len(batch) == 0 {
		p.ticks.Add(1)
		return TickStats{}, nil
	}

	// One clock read ends a stage and starts the next. Stage spans record
	// only non-empty passes: at a 10ms cadence most ticks collect nothing,
	// and those would drown the ring the sampled trace endpoint serves.
	x := &p.scratch.x
	*x = mat.Matrix{Rows: len(batch), Cols: m.dim, Data: feats}
	classifyStart := m.now()
	m.tracer.Observe(trace.StageCollect, collectStart, classifyStart.Sub(collectStart), len(batch))
	probs, err := m.classify(p, x)
	if err != nil {
		requeue(batch)
		return TickStats{}, err
	}
	writeStart := m.now()
	m.tracer.Observe(trace.StageClassify, classifyStart, writeStart.Sub(classifyStart), len(batch))
	if probs.Rows != len(batch) {
		requeue(batch)
		return TickStats{}, fmt.Errorf("fleet: model returned %d rows for %d windows", probs.Rows, len(batch))
	}

	// Open-set scoring: the very embedding row the model consumed, against the
	// calibration's reference set — one pass over the batch in row blocks,
	// like the model call before it, so the nearest-reference search runs on
	// every core and outside the per-job locks. Each score goes through the
	// job's certificate, which mostly settles it without a search. A
	// distance is a pure function of its row, whatever the certificate
	// holds; the predictions are untouched, so enabling drift leaves
	// in-distribution results bit-identical.
	cal := m.dcal
	if cal != nil {
		// A pass of one row block runs here, with no closure to allocate;
		// the block function returns no error, so neither does the pass.
		if mat.RowBlocks(len(batch), 0) == 1 {
			p.score(cal, 0, len(batch))
		} else {
			_ = mat.ParallelRowBlocks(len(batch), 0, func(lo, hi int) error {
				p.score(cal, lo, hi)
				return nil
			})
		}
	}

	// Write predictions back, serially: all that is left per job is copying
	// its probability row and verdict into the job's own slot and publishing.
	// jobState pointers are stable, but the dirty flag and the prediction
	// slot belong to the stripe mutex, so re-lock per stripe ordering doesn't
	// matter — each job is visited once. Once a job has been scored, the copy
	// lands in memory the job already owns, so write-back allocates nothing.
	// The dirty flag is retired only here, after the model call succeeded; a
	// job that received more samples while inference ran stays dirty and goes
	// back on its queue for the next tick.
	for i, c := range batch {
		row := probs.Row(i)
		class := mat.ArgMax(row)
		rejected := cal != nil && cal.Threshold.Reject(c.score)
		if rejected {
			m.unknowns.Add(1)
		}
		js := c.js
		js.home.mu.Lock()
		first, oldClass, wasUnknown := js.probs == nil, int(js.class), js.rejected
		js.probs = append(js.probs[:0], row...)
		js.class, js.featDist, js.rejected, js.hasOpen = int32(class), c.score.FeatDist, rejected, cal != nil
		if js.samples == c.seen {
			js.dirty = false
		} else {
			js.home.enqueue(js)
		}
		js.home.mu.Unlock()
		// Adapt observation, outside the job lock like event emission below:
		// the observer sees the verdict and the very feature row the model
		// consumed (borrowed — it copies what it keeps), and can never touch
		// the prediction already published above.
		if m.obs != nil {
			m.obs.ObserveWindow(Observation{
				Job: js.id, Class: class, Rejected: rejected,
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
			if first || oldClass != class {
				e := events.Event{
					Type: events.TypePrediction, Job: events.Intp(js.id),
					Class: events.Intp(class), Probability: row[class],
				}
				if !first {
					e.PrevClass = events.Intp(oldClass)
				}
				m.evs.Publish(e)
			}
			if rejected && !wasUnknown {
				m.evs.Publish(events.Event{
					Type: events.TypeUnknown, Job: events.Intp(js.id),
					Class: events.Intp(class), Probability: row[class],
					FeatDist: c.score.FeatDist,
				})
			}
		}
	}
	m.tracer.Observe(trace.StageWriteBack, writeStart, m.now().Sub(writeStart), len(batch))
	p.ticks.Add(1)
	p.classed.Add(uint64(len(batch)))
	return TickStats{Classified: len(batch)}, nil
}

// score sets the open-set score of batch rows [lo, hi), each through its
// job's certificate. Callers hold p.tickMu and the read side of m.mu.
func (p *partition) score(cal *drift.Calibration, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := &p.scratch.batch[i]
		c.score = cal.ScoreCert(p.scratch.x.Row(i), &c.js.cert)
	}
}

// classify runs the serving model over the batch x: into the partition's
// probability scratch when the model is an IntoClassifier, otherwise into a
// matrix the model allocates. Callers hold p.tickMu and the read side of
// m.mu.
func (m *Monitor) classify(p *partition, x *mat.Matrix) (*mat.Matrix, error) {
	if m.into == nil {
		return m.model.PredictProba(x)
	}
	out, k := &p.scratch.probs, m.into.NumClasses()
	if cap(out.Data) < x.Rows*k {
		out.Data = make([]float64, x.Rows*k)
	}
	*out = mat.Matrix{Rows: x.Rows, Cols: k, Data: out.Data[:x.Rows*k]}
	return out, m.into.PredictProbaBatchInto(x, out)
}

// dropBatch ends a tick's hold on the jobs it collected: the scratch is
// kept, the pointers in it are not, so a job that ends stays collectable.
func (p *partition) dropBatch() {
	clear(p.scratch.batch)
	p.scratch.batch = p.scratch.batch[:0]
	p.scratch.feats = p.scratch.feats[:0]
}

// enqueue appends js to the queue and, when the queue was empty, sets the
// stripe's bit in its partition's dirty mask; callers hold st.mu.
func (st *stripe) enqueue(js *jobState) {
	if len(st.queue) == 0 {
		st.mask.Or(st.bit)
	}
	st.queue = append(st.queue, js)
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
		c.js.home.enqueue(c.js)
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
	if err := CheckCalibration(cal, m.shape.Sensors()); err != nil {
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

// Prediction returns a copy of the most recent classification for the job,
// or false if the job is unknown or has not been classified yet. The copy
// is the caller's: later ticks do not change it.
func (m *Monitor) Prediction(jobID int) (*stream.Prediction, bool) {
	_, st := m.stripeFor(jobID)
	st.mu.Lock()
	var p *stream.Prediction
	if js := st.jobs[jobID]; js != nil {
		p = js.prediction()
	}
	st.mu.Unlock()
	return p, p != nil
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
		pred = js.prediction()
		delete(st.jobs, jobID)
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
	cutoff := m.sinceEpoch() - maxIdle
	total := 0
	for _, p := range m.parts {
		n := 0
		p.eachStripe(func(st *stripe) {
			for _, js := range st.jobs {
				if js.samples == 0 || js.lastSeen <= cutoff {
					delete(st.jobs, js.id)
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
	// Pred is a copy of the last published prediction, nil before the
	// first; later ticks do not change it.
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
				ji := JobInfo{JobID: id, Samples: js.samples, Ready: js.emb.Ready(), Pred: js.prediction()}
				if js.samples != 0 {
					ji.LastSeen = m.epoch.Add(js.lastSeen)
				}
				out = append(out, ji)
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Window returns the per-job sliding-window length the monitor was built with.
func (m *Monitor) Window() int { return m.shape.Window() }

// Sensors returns the per-sample sensor count the monitor was built with.
func (m *Monitor) Sensors() int { return m.shape.Sensors() }

// Scaler returns the training-time statistics every job's embedder was
// built with. Per-job window state survives a model swap, so a replacement
// model must have been trained against exactly these.
func (m *Monitor) Scaler() *preprocess.StandardScaler { return m.shape.Scaler() }

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
	// Samples is the number of telemetry samples binned within the
	// horizon, one sample in binEvery.
	Samples uint64
	// Unknowns counts classifications the calibrated threshold rejected
	// as unknown workloads (monotonic; re-scored jobs count each time).
	Unknowns uint64
	// SensorPSI is the per-sensor Population Stability Index of the live
	// input binned within the horizon against the training reference.
	SensorPSI []float64
	// Score is the fleet drift score: the maximum SensorPSI.
	Score float64
}

// DriftStats snapshots the open-set and input-drift state: the stripes'
// buckets of the last horizonEpochs epochs of the monitor's clock are summed
// first and the per-sensor PSI computed on the sum (PSI is not additive, so
// averaging per-partition PSIs would misreport), so the result is the same
// whatever the partition count. The read side of the swap lock is held
// across the merge, so a concurrent swap can never hand it windows of mixed
// generations. Safe to call concurrently with Ingest, ticks and swaps.
func (m *Monitor) DriftStats() DriftStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dcal == nil {
		return DriftStats{}
	}
	oldest := epochOf(m.sinceEpoch()) - horizonEpochs + 1
	w := drift.NewWindow(m.shape.Sensors(), m.dcal.Ref.Bins)
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) {
			for i := range st.horizon {
				if b := &st.horizon[i]; b.epoch >= oldest {
					w.Merge(&b.w)
				}
			}
		})
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
