// Package server exposes a fleet over HTTP — the network boundary of the
// paper's deployment scenario (§VI): collectors on other machines feed
// telemetry in, operators and dashboards read classifications out, and the
// serving process keeps hot-swapping refreshed model artifacts underneath
// without dropping either side. The fleet behind the API is anything
// implementing the Monitor contract — in every production process a
// partitioned fleet.Monitor — which the serving layer drives with one
// independent tick loop per shard (partition) plus shard-labelled /metrics.
//
// docs/API.md is the complete request/response reference for this API.
// The surface is deliberately small:
//
//	POST   /v1/ingest               batch ingest in either framing,
//	                                negotiated by Content-Type: NDJSON
//	                                (default), one sample per line:
//	                                {"job":17,"values":[v0,...,v6]}
//	                                or length-prefixed binary records
//	                                (Content-Type: application/x-wcc-ingest,
//	                                layout in internal/wire). Per-line /
//	                                per-record error accounting; a malformed
//	                                line never poisons the batch's valid
//	                                samples. 429 + Retry-After when the
//	                                bounded ingest queue is full.
//	GET    /v1/jobs                 fleet-wide snapshot (per-job state and
//	                                latest classification)
//	GET    /v1/jobs/{id}/prediction latest full prediction for one job
//	                                (with open-set feature_distance/unknown
//	                                fields when the fleet carries a drift
//	                                calibration)
//	DELETE /v1/jobs/{id}            end a job, freeing its registry slot
//	GET    /v1/drift                open-set and input-drift state: unknown
//	                                counts and per-sensor PSI against the
//	                                training reference
//	GET    /v1/adapt                continual-learning flywheel status:
//	                                lifecycle phase, rejected-window buffer,
//	                                candidate families, shadow-scoring stats
//	GET    /v1/adapt/families       clustered rejected-window families as a
//	                                portable JSON bundle (wcctrain -families)
//	POST   /v1/adapt/build          force a cluster+train pass now instead of
//	                                waiting for the background cadence
//	POST   /v1/adapt/promote        promote the shadow candidate regardless
//	                                of the quality gate
//	POST   /v1/adapt/abort          discard the candidate and rebuffer
//	GET    /v1/events               push plane: Server-Sent Events stream of
//	                                prediction-change, unknown-verdict,
//	                                drift-band, model-swap and shard-health
//	                                events; ?type= and ?job= filters
//	GET    /v1/trace                per-stage serving latency: histogram
//	                                summaries plus sampled recent spans
//	GET    /healthz                 liveness plus window shape
//	GET    /metrics                 Prometheus-style text metrics
//	GET    /                        embedded live operator dashboard
//
// Ingest is decoupled from request handling by a bounded queue drained by a
// fixed worker pool: a handler parses its batch, enqueues it without
// blocking, and waits for the workers' per-line results. When the queue is
// full the server answers 429 with a Retry-After header instead of letting
// requests pile up — backpressure is explicit and visible to clients. A
// background goroutine runs the monitor's batched inference ticks on a
// fixed cadence, and Close drains everything in order: queued batches are
// ingested, loops stop, and one final tick flushes every pending window so
// the tail of a drained stream still produces predictions.
//
// That ingest pipeline exists once: IngestHandler returns it for any
// destination, POST /v1/ingest is IngestHandler(Monitor.IngestBatch, nil),
// and a cluster node mounts it again for its public route, with a Split that
// hands peer-owned samples to their owners inside the request, and for its
// peer route, so every sample entering a process passes the same admission.
// A request parses straight into the fleet.Batch of its pooled scratch, and
// a worker hands that batch to its destination in one call.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/preprocess"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Monitor is the fleet contract the serving layer drives: concurrent
// sample ingest, per-shard batched inference ticks, prediction and snapshot
// reads, job lifecycle, zero-downtime model swaps, and the fleet-wide and
// per-shard counters /metrics exports. *fleet.Monitor implements it.
type Monitor interface {
	// IngestBatch is what the ingest workers call, once per queued batch.
	IngestBatch(b *fleet.Batch) []fleet.SampleError
	// Ingest is the one-sample form; the server never calls it, but
	// benchmark/ drives it through this contract.
	Ingest(jobID int, sample []float64) error
	// Tick is the whole-fleet pass; the server ticks shard by shard and
	// never calls it, but benchmark/ drives it through this contract.
	Tick() (fleet.TickStats, error)
	NumShards() int
	TickShard(i int) (fleet.TickStats, error)
	ShardStats() []fleet.ShardStats
	SwapClassifierDrift(model stream.Classifier, cal *drift.Calibration) error
	Prediction(jobID int) (*stream.Prediction, bool)
	EndJob(jobID int) (*stream.Prediction, bool)
	EvictIdle(maxIdle time.Duration) int
	Snapshot() []fleet.JobInfo
	Window() int
	Sensors() int
	// Scaler is the statistics the fleet's embedders standardise with; with
	// Window and Sensors it is what Install gates a replacement model on.
	Scaler() *preprocess.StandardScaler
	NumJobs() int
	SamplesIngested() uint64
	Classifications() uint64
	Ticks() uint64
	Swaps() uint64
	Evictions() uint64
	DriftStats() fleet.DriftStats
	SetEventSink(s events.Sink)
	SetTraceRecorder(r *trace.Recorder)
}

// Sharded is the name the frozen benchmark/setup.go uses for the contract;
// it goes with the next benchmark-archetype PR.
type Sharded = Monitor

var _ Monitor = (*fleet.Monitor)(nil)

// Config sizes an HTTP serving layer over a fleet monitor.
type Config struct {
	// Monitor is the fleet being served — a *fleet.Monitor. Required.
	Monitor Monitor
	// ClassNames optionally maps class indices to workload names in
	// prediction responses.
	ClassNames []string
	// TickEvery is the batched-inference cadence (default 10ms).
	TickEvery time.Duration
	// Workers is the number of goroutines draining the ingest queue
	// (default GOMAXPROCS).
	Workers int
	// EvictAfter > 0 enables idle-job eviction: jobs idle longer than this
	// are removed from the registry every EvictAfter/4, bounding memory on
	// fleets whose producers never call DELETE. New refuses a positive value
	// under 4ns, which leaves no interval; zero or negative disables.
	EvictAfter time.Duration
	// Events is the push-plane bus GET /v1/events serves; nil means the
	// server creates its own. Either way the bus is wired into the monitor
	// so prediction, unknown and swap events flow, and the server adds
	// drift-band and shard-health events on top.
	Events *events.Bus
	// Adapt, when non-nil, is the continual-learning flywheel the /v1/adapt
	// routes drive. The server only reads it — wiring the manager into the
	// monitor (SetAdaptObserver) and running its background loop is the
	// caller's job, because the promotion hook usually closes over the
	// caller's model path and watcher.
	Adapt *adapt.Manager

	// The rest is set by this package's tests only. testHook, when non-nil,
	// runs at the top of every worker batch, to hold workers and fill the
	// queue deterministically; each of the others replaces, when non-zero,
	// the default no caller ever changed.
	testHook     func()
	queueDepth   int           // defaultQueueDepth
	maxBodyBytes int64         // defaultMaxBodyBytes
	retryAfter   time.Duration // defaultRetryAfter
	evictEvery   time.Duration // EvictAfter/4
	eventBuffer  int           // defaultEventBuffer
}

const (
	// defaultQueueDepth bounds how many parsed ingest batches may wait for a
	// worker, across every IngestHandler mount. A full queue answers 429
	// with Retry-After (defaultRetryAfter, in whole seconds) instead of
	// blocking.
	defaultQueueDepth = 256
	defaultRetryAfter = time.Second
	// defaultMaxBodyBytes caps one ingest request body.
	defaultMaxBodyBytes = 16 << 20
	// defaultEventBuffer bounds each SSE subscriber's queue. A subscriber
	// whose queue overflows is evicted — its stream ends — so a stalled
	// reader can never backpressure tick write-back.
	defaultEventBuffer = 256
)

// eventHeartbeat is the SSE keep-alive comment cadence: it keeps idle
// streams alive through proxies and lets dead client connections surface as
// write errors.
const eventHeartbeat = 15 * time.Second

// driftPollEvery is how often the fleet PSI score is checked against the
// stable/moderate/major band boundaries to emit drift events on crossings.
const driftPollEvery = time.Second

// tickWindow is how many recent tick durations back the /metrics latency
// quantiles.
const tickWindow = 512

// maxLineBytes caps one NDJSON line.
const maxLineBytes = 1 << 20

// maxReportedLineErrors caps the per-line error list echoed in an ingest
// response; the rejected count is always exact.
const maxReportedLineErrors = 64

// Server is the HTTP serving layer. Build with New, mount Handler on an
// http.Server, and Close after the listener has shut down.
type Server struct {
	cfg   Config
	m     Monitor
	mux   *http.ServeMux
	queue chan *ingestBatch
	stop  chan struct{}
	start time.Time
	now   func() time.Time // the tick latency clock, read only through this field

	// bus and tracer are the observability plane: the monitor publishes
	// prediction/unknown/swap events into bus and feeds tick-stage spans to
	// tracer; the HTTP layer adds drift-band and shard-health events plus
	// the parse/queue/ingest stages, and serves both over /v1/events,
	// /v1/trace and /metrics. Neither influences a prediction bit.
	bus    *events.Bus
	tracer *trace.Recorder
	// streamsStop ends every open SSE stream; CloseStreams closes it so a
	// graceful http.Server.Shutdown is not held hostage by long-lived
	// event subscribers.
	streamsStop      chan struct{}
	closeStreamsOnce sync.Once

	// drain orders enqueues against Close: a handler holds it shared across
	// its stop check and non-blocking enqueue, Close holds it exclusively to
	// close the queue, so the queue is never closed under a send.
	drain     sync.RWMutex
	workerWG  sync.WaitGroup
	loopWG    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	throttled atomic.Uint64 // 429 responses
	lineErrs  atomic.Uint64 // rejected ingest lines

	tickMu   sync.Mutex
	tickDur  [tickWindow]time.Duration
	tickN    uint64
	tickErrs uint64
	// lastErrs holds each shard's tick loop's most recent error ("" after
	// a success), so one healthy shard cannot clear another's failure.
	lastErrs []string

	// namesMu guards classNames, which starts as Config.ClassNames and is
	// replaced by Install when a swapped-in artifact names its own classes
	// (an adapt promotion widens the class set).
	namesMu    sync.RWMutex
	classNames []string
}

// IngestFunc is where an ingest route delivers its samples: it applies the
// whole batch and returns the samples it refused, as
// fleet.Monitor.IngestBatch does.
type IngestFunc func(b *fleet.Batch) []fleet.SampleError

type ingestBatch struct {
	sc     *ingestScratch // the request's parsed batch and its client lines
	ingest IngestFunc     // where the batch goes
	done   chan Verdict
	enq    time.Time // when the batch joined the queue, for the queue-wait span
}

// LineError is one rejected ingest line in an ingest response.
type LineError struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// Verdict is what delivering a set of samples came to: how many were
// applied, and the rejected lines. Unlisted counts rejected lines Errors
// cannot name, because the reply that reported them was truncated.
type Verdict struct {
	Accepted int
	Errors   []LineError
	Unlisted int
}

// Split is a cluster node's hook on its public ingest route. It runs on the
// request's goroutine between parse and enqueue and compacts in place: it
// moves the samples the node applies itself, and their lines, to the front
// and returns how many there are. The rest it takes, to refuse or to deliver
// to their owners: the handler calls forward, when non-nil, once the kept
// samples are admitted, and adds its verdict to the reply.
type Split func(samples []fleet.Sample, lines []int) (keep int, forward func(ctx context.Context) Verdict)

// New validates the configuration, starts the ingest workers and one
// inference tick loop per shard, and returns the serving layer.
func New(cfg Config) (*Server, error) {
	if cfg.Monitor == nil {
		return nil, errors.New("server: nil monitor")
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.queueDepth = cmp.Or(cfg.queueDepth, defaultQueueDepth)
	cfg.maxBodyBytes = cmp.Or(cfg.maxBodyBytes, defaultMaxBodyBytes)
	cfg.retryAfter = cmp.Or(cfg.retryAfter, defaultRetryAfter)
	cfg.evictEvery = cmp.Or(cfg.evictEvery, cfg.EvictAfter/4)
	if cfg.EvictAfter > 0 && cfg.evictEvery <= 0 {
		return nil, fmt.Errorf("server: EvictAfter %v is under 4ns, so EvictAfter/4 gives no eviction interval", cfg.EvictAfter)
	}
	cfg.eventBuffer = cmp.Or(cfg.eventBuffer, defaultEventBuffer)
	if cfg.Events == nil {
		cfg.Events = events.NewBus()
	}
	s := &Server{
		cfg:         cfg,
		m:           cfg.Monitor,
		queue:       make(chan *ingestBatch, cfg.queueDepth),
		stop:        make(chan struct{}),
		start:       time.Now(),
		now:         time.Now,
		bus:         cfg.Events,
		tracer:      trace.NewRecorder(),
		streamsStop: make(chan struct{}),
		classNames:  cfg.ClassNames,
	}
	s.m.SetEventSink(s.bus)
	s.m.SetTraceRecorder(s.tracer)
	tickLoops := s.m.NumShards()
	s.lastErrs = make([]string, tickLoops)
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/ingest", s.IngestHandler(s.m.IngestBatch, nil))
	s.mux.HandleFunc("GET /v1/jobs", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/jobs/{id}/prediction", s.handlePrediction)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleEndJob)
	s.mux.HandleFunc("GET /v1/drift", s.handleDrift)
	s.mux.HandleFunc("GET /v1/adapt", s.handleAdapt)
	s.mux.HandleFunc("GET /v1/adapt/families", s.handleAdaptFamilies)
	s.mux.HandleFunc("POST /v1/adapt/build", s.adaptAction((*adapt.Manager).BuildCandidate))
	s.mux.HandleFunc("POST /v1/adapt/promote", s.adaptAction((*adapt.Manager).Promote))
	s.mux.HandleFunc("POST /v1/adapt/abort", s.adaptAction((*adapt.Manager).Abort))
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /{$}", s.handleDashboard)

	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	for i := 0; i < tickLoops; i++ {
		s.loopWG.Add(1)
		go s.tickLoop(i)
	}
	if cfg.EvictAfter > 0 {
		s.loopWG.Add(1)
		go s.evictLoop()
	}
	s.loopWG.Add(1)
	go s.driftBandLoop()
	return s, nil
}

// Handler returns the API's HTTP handler, to be mounted on the caller's
// http.Server (or an httptest.Server in tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the serving layer: new ingest batches are refused, queued
// batches are ingested by the workers, the background loops stop, and one
// final inference tick flushes every pending window so the last samples of
// a drained stream still produce predictions. Close returns the final
// tick's error, if any. Call it after the HTTP listener has stopped
// accepting requests (http.Server.Shutdown); Close does not stop the
// listener itself, and read-only endpoints keep working afterwards.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.CloseStreams()
		close(s.stop)
		s.drain.Lock()
		close(s.queue)
		s.drain.Unlock()
		s.workerWG.Wait()
		s.loopWG.Wait()
		s.closeErr = s.finalTick()
	})
	return s.closeErr
}

// CloseStreams ends every open /v1/events stream. SSE subscribers hold
// their connections indefinitely, which would stall http.Server.Shutdown's
// graceful drain forever; wire this into the listener's shutdown
// (http.Server.RegisterOnShutdown) so streams end the moment a drain
// begins. Safe to call more than once; Close calls it too.
func (s *Server) CloseStreams() {
	s.closeStreamsOnce.Do(func() { close(s.streamsStop) })
}

// Events exposes the server's push-plane bus: the serving process publishes
// its own lifecycle moments (artifact watcher swaps) through the same bus
// its HTTP subscribers read.
func (s *Server) Events() *events.Bus { return s.bus }

// worker drains the ingest queue, handing each request's parsed batch to
// its destination in one call and naming each refusal by the client's line.
// The batch and its grouping scratch belong to the request's pooled scratch,
// so they are reused from request to request and shared with nobody.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for b := range s.queue {
		if s.cfg.testHook != nil {
			s.cfg.testHook()
		}
		n := len(b.sc.batch.Samples)
		s.tracer.Observe(trace.StageQueue, b.enq, time.Since(b.enq), n)
		ingestStart := time.Now()
		errs := b.ingest(&b.sc.batch)
		res := Verdict{Accepted: n - len(errs)}
		for _, e := range errs {
			res.Errors = append(res.Errors, LineError{Line: b.sc.lines[e.Index], Error: e.Err.Error()})
		}
		s.tracer.Observe(trace.StageIngest, ingestStart, time.Since(ingestStart), n)
		b.done <- res
	}
}

// tickLoop drives one shard's inference loop on its own ticker, so a slow
// shard's batch delays nobody else's cadence.
func (s *Server) tickLoop(loop int) {
	defer s.loopWG.Done()
	t := time.NewTicker(s.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.runTick(loop) // runTick already logs and publishes the error's edges
		}
	}
}

// finalTick is the drain's whole-fleet flush, ticked shard by shard so each
// outcome lands in its own lastErrs slot.
func (s *Server) finalTick() error {
	var errs []error
	for i := 0; i < s.m.NumShards(); i++ {
		if err := s.runTick(i); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// runTick performs one timed inference pass over shard loop and records its
// latency and error state for /metrics and /healthz.
//
//wcc:tickpath latency is measured on the injected s.now clock
func (s *Server) runTick(loop int) error {
	t0 := s.now()
	_, err := s.m.TickShard(loop)
	d := s.now().Sub(t0)
	s.tickMu.Lock()
	s.tickDur[s.tickN%tickWindow] = d
	s.tickN++
	prevErr := s.lastErrs[loop]
	if err != nil {
		s.tickErrs++
		s.lastErrs[loop] = err.Error()
	} else {
		s.lastErrs[loop] = ""
	}
	s.tickMu.Unlock()
	// Health is an edge, not a level: emit and log only when a loop's error
	// state flips — first failure after successes, first success after one.
	if failed := err != nil; failed == (prevErr == "") {
		e := events.Event{Type: events.TypeShardHealth, Shard: events.Intp(loop), Healthy: events.Boolp(!failed)}
		if err != nil {
			e.Error = err.Error()
			slog.Error("tick loop failing", "shard", loop, "err", err)
		} else {
			slog.Info("tick loop recovered", "shard", loop)
		}
		s.bus.Publish(e)
	}
	return err
}

// driftBandLoop watches the fleet PSI score and publishes a drift event
// whenever it crosses a band boundary (stable / moderate / major) in
// either direction — the push-plane counterpart of polling GET /v1/drift.
func (s *Server) driftBandLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(driftPollEvery)
	defer t.Stop()
	last := drift.BandStable // a fleet starts undrifted: score 0
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			st := s.m.DriftStats()
			if !st.Enabled {
				continue
			}
			band := drift.Band(st.Score)
			if band == last {
				continue
			}
			s.bus.Publish(events.Event{Type: events.TypeDrift, Score: st.Score, Band: band, PrevBand: last})
			last = band
		}
	}
}

// lastTickErr joins every tick loop's most recent error state; "" means
// all loops' last passes succeeded.
func (s *Server) lastTickErr() string {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	var parts []string
	for loop, e := range s.lastErrs {
		if e != "" {
			parts = append(parts, fmt.Sprintf("shard %d: %s", loop, e))
		}
	}
	return strings.Join(parts, "; ")
}

func (s *Server) evictLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(s.cfg.evictEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if n := s.m.EvictIdle(s.cfg.EvictAfter); n > 0 {
				slog.Info("evicted idle jobs", "jobs", n, "idle_after", s.cfg.EvictAfter)
			}
		}
	}
}

// ingestLine is the wire form of one NDJSON ingest line.
type ingestLine struct {
	Job    *int      `json:"job"`
	Values []float64 `json:"values"`
}

// parseIngestLine validates one raw NDJSON line (already trimmed of
// surrounding whitespace). It returns ok=false with nil errp for a blank
// line (skipped), ok=false with a lineError for a rejected line, and
// ok=true with the parsed sample otherwise. It never panics on hostile
// input: malformed JSON, wrong field types, missing fields and JSON's
// unrepresentable NaN/Inf spellings all land in the per-line error, so one
// bad line never poisons the batch's valid samples. Sensor-width and
// value-sanity checks (non-finite and absurd magnitudes) happen in
// fleet.Monitor.IngestBatch, and surface per line through the same
// accounting.
func parseIngestLine(line int, raw []byte) (fleet.Sample, *LineError, bool) {
	if len(raw) == 0 {
		return fleet.Sample{}, nil, false
	}
	var in ingestLine
	if err := json.Unmarshal(raw, &in); err != nil {
		return fleet.Sample{}, &LineError{Line: line, Error: "malformed JSON: " + err.Error()}, false
	}
	if in.Job == nil || *in.Job < 0 {
		return fleet.Sample{}, &LineError{Line: line, Error: `missing or negative "job"`}, false
	}
	if len(in.Values) == 0 {
		return fleet.Sample{}, &LineError{Line: line, Error: `missing or empty "values"`}, false
	}
	return fleet.Sample{Job: *in.Job, Values: in.Values}, nil, true
}

// ingestResponse is the per-request accounting an ingest returns.
type ingestResponse struct {
	Accepted int         `json:"accepted"`
	Rejected int         `json:"rejected"`
	Errors   []LineError `json:"errors,omitempty"`
	// ErrorsTruncated reports that more lines were rejected than Errors
	// lists; Rejected is always the exact count.
	ErrorsTruncated bool `json:"errors_truncated,omitempty"`
}

// IngestHandler returns the ingest pipeline — drain barrier, pooled body
// read under the body cap, parse by framing with all-or-nothing on a framing
// break, the bounded queue with 429 + Retry-After, parse/queue/ingest spans
// and per-line accounting — delivering each parsed batch to ingest. Every
// handler it returns shares the server's one queue, worker pool and
// counters; they differ only in ingest, which runs on a worker and receives
// the very fleet.Batch the request parsed into, so it must not keep the
// batch or its values past its return (they are pooled parse scratch), and
// in split, nil except on a cluster node's public route.
func (s *Server) IngestHandler(ingest IngestFunc, split Split) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.serveIngest(w, r, ingest, split) })
}

func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request, ingest IngestFunc, split Split) {
	// A draining server refuses before reading the body; the check that
	// orders an enqueue against Close is repeated under s.drain below.
	select {
	case <-s.stop:
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	default:
	}

	// The whole body is read into pooled scratch, then parsed by framing:
	// binary length-prefixed records when the Content-Type says so, NDJSON
	// otherwise. The scratch (body buffer, values arena, batch and lines) is
	// returned to the pool when the handler exits — by then the workers
	// have copied every sample out (Push copies into the job's ring), so
	// the aliasing is safe even though the batch rode the queue.
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer ingestScratchPool.Put(sc)

	parseStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes)
	var err error
	sc.body, err = readBody(sc.body[:0], body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes; split the batch", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return
	}

	parse := parseLines
	if isBinaryIngest(r.Header.Get("Content-Type")) {
		parse = parseBinary
	}
	parseErrs, fatal := parse(sc)
	if fatal != nil {
		// Nothing was enqueued yet, so a request-level failure rejects the
		// whole batch rather than ingesting an unknown prefix.
		writeError(w, http.StatusBadRequest, "reading body: "+fatal.Error())
		return
	}
	s.tracer.Observe(trace.StageParse, parseStart, time.Since(parseStart), len(sc.batch.Samples))

	var forward func(context.Context) Verdict
	if split != nil {
		var keep int
		keep, forward = split(sc.batch.Samples, sc.lines)
		sc.batch.Samples, sc.lines = sc.batch.Samples[:keep], sc.lines[:keep]
	}
	var b *ingestBatch
	if len(sc.batch.Samples) > 0 {
		b = &ingestBatch{sc: sc, ingest: ingest, done: make(chan Verdict, 1), enq: time.Now()}
		draining, queued := false, false
		s.drain.RLock()
		select {
		case <-s.stop:
			draining = true
		default:
			select {
			case s.queue <- b:
				queued = true
			default:
			}
		}
		s.drain.RUnlock()
		if draining {
			writeError(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		if !queued {
			s.throttled.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.retryAfter)))
			writeError(w, http.StatusTooManyRequests, "ingest queue full")
			return
		}
	}
	// The kept samples are admitted before anything is forwarded, so a 429
	// or 503 above still means nothing in the batch was applied anywhere.
	var res Verdict
	if forward != nil {
		res = forward(r.Context())
	}
	if b != nil {
		local := <-b.done
		res.Accepted += local.Accepted
		res.Errors = append(res.Errors, local.Errors...)
	}

	all := append(parseErrs, res.Errors...)
	sort.Slice(all, func(i, j int) bool { return all[i].Line < all[j].Line })
	rejected := len(all) + res.Unlisted
	s.lineErrs.Add(uint64(rejected))
	resp := ingestResponse{Accepted: res.Accepted, Rejected: rejected, Errors: all}
	if len(all) > maxReportedLineErrors {
		resp.Errors = all[:maxReportedLineErrors]
	}
	resp.ErrorsTruncated = rejected > len(resp.Errors)
	writeJSON(w, http.StatusOK, resp)
}

// predictionResponse is the full per-job prediction read. The open-set
// fields (feature_distance and unknown) are present only when the serving
// fleet carries a drift calibration; unknown is feature_distance past the
// calibrated cut point, and nothing else.
type predictionResponse struct {
	Job         int       `json:"job"`
	Class       int       `json:"class"`
	ClassName   string    `json:"class_name,omitempty"`
	Probability float64   `json:"probability"`
	Probs       []float64 `json:"probs"`
	FeatureDist *float64  `json:"feature_distance,omitempty"`
	Unknown     *bool     `json:"unknown,omitempty"`
}

func (s *Server) className(class int) string {
	s.namesMu.RLock()
	defer s.namesMu.RUnlock()
	if class >= 0 && class < len(s.classNames) {
		return s.classNames[class]
	}
	return ""
}

func (s *Server) handlePrediction(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "job id must be an integer")
		return
	}
	pred, ok := s.m.Prediction(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no prediction for job %d", id))
		return
	}
	resp := predictionResponse{
		Job: id, Class: pred.Class, ClassName: s.className(pred.Class),
		Probability: pred.Probability, Probs: pred.Probs,
	}
	if o := pred.Open; o != nil {
		resp.FeatureDist, resp.Unknown = &o.FeatDist, &o.Rejected
	}
	writeJSON(w, http.StatusOK, resp)
}

// jobSummary is one job's row in the fleet snapshot.
type jobSummary struct {
	Job     int    `json:"job"`
	Samples uint64 `json:"samples"`
	Ready   bool   `json:"ready"`
	// LastSeenUnixMS is when the job's most recent sample arrived (0 if none).
	LastSeenUnixMS int64 `json:"last_seen_unix_ms,omitempty"`
	// Class/ClassName/Probability summarise the latest prediction and are
	// absent for jobs not classified yet; full probabilities are on the
	// per-job prediction endpoint.
	Class       *int    `json:"class,omitempty"`
	ClassName   string  `json:"class_name,omitempty"`
	Probability float64 `json:"probability,omitempty"`
	// Unknown is the open-set verdict, present only when the fleet scores
	// predictions against a drift calibration.
	Unknown *bool `json:"unknown,omitempty"`
}

type snapshotResponse struct {
	Count int          `json:"count"`
	Jobs  []jobSummary `json:"jobs"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.m.Snapshot()
	resp := snapshotResponse{Count: len(snap), Jobs: make([]jobSummary, 0, len(snap))}
	for _, ji := range snap {
		row := jobSummary{Job: ji.JobID, Samples: ji.Samples, Ready: ji.Ready}
		if !ji.LastSeen.IsZero() {
			row.LastSeenUnixMS = ji.LastSeen.UnixMilli()
		}
		if ji.Pred != nil {
			class := ji.Pred.Class
			row.Class = &class
			row.ClassName = s.className(class)
			row.Probability = ji.Pred.Probability
			if o := ji.Pred.Open; o != nil {
				unknown := o.Rejected
				row.Unknown = &unknown
			}
		}
		resp.Jobs = append(resp.Jobs, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

// endJobResponse acknowledges a DELETE with the job's final classification.
type endJobResponse struct {
	Job         int     `json:"job"`
	Ended       bool    `json:"ended"`
	Class       *int    `json:"class,omitempty"`
	ClassName   string  `json:"class_name,omitempty"`
	Probability float64 `json:"probability,omitempty"`
}

func (s *Server) handleEndJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "job id must be an integer")
		return
	}
	final, ok := s.m.EndJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %d", id))
		return
	}
	resp := endJobResponse{Job: id, Ended: true}
	if final != nil {
		class := final.Class
		resp.Class = &class
		resp.ClassName = s.className(class)
		resp.Probability = final.Probability
	}
	writeJSON(w, http.StatusOK, resp)
}

// driftResponse is the fleet's open-set and input-drift state. Score and
// SensorPSI follow the usual PSI reading: < 0.1 stable, 0.1–0.25 moderate
// drift, > 0.25 major drift.
type driftResponse struct {
	// Enabled reports whether the serving model carries a drift
	// calibration; all other fields are zero when it does not.
	Enabled bool `json:"enabled"`
	// Score is the fleet drift score: the maximum per-sensor PSI.
	Score float64 `json:"score"`
	// SensorPSI is the per-sensor PSI against the training reference, in
	// Table III sensor order.
	SensorPSI []float64 `json:"sensor_psi,omitempty"`
	// Samples is the number of ingested samples binned into the drift
	// histograms within the horizon, one sample in k.
	Samples uint64 `json:"samples"`
	// Unknowns counts classifications rejected as unknown workloads.
	Unknowns uint64 `json:"unknowns"`
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	st := s.m.DriftStats()
	writeJSON(w, http.StatusOK, driftResponse{
		Enabled:   st.Enabled,
		Score:     st.Score,
		SensorPSI: st.SensorPSI,
		Samples:   st.Samples,
		Unknowns:  st.Unknowns,
	})
}

// HealthResponse is the liveness read; Window and Sensors tell a load
// driver what sample shape the fleet expects. The cluster layer
// (internal/cluster) embeds it in its own /healthz payload, adding
// membership and routing on top.
type HealthResponse struct {
	Status  string `json:"status"`
	Jobs    int    `json:"jobs"`
	Window  int    `json:"window"`
	Sensors int    `json:"sensors"`
	// Shards is the serving core's shard count.
	Shards        int     `json:"shards"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	LastTickError string  `json:"last_tick_error,omitempty"`
	// Classes maps class indices to workload names when the server was
	// configured with them — the dashboard labels its class mix from here.
	Classes []string `json:"classes,omitempty"`
}

// Health assembles the current liveness state — the payload GET /healthz
// serves. Status "degraded" means some tick loop's most recent pass
// failed; the matching HTTP code is 503.
func (s *Server) Health() HealthResponse {
	lastErr := s.lastTickErr()
	resp := HealthResponse{
		Status:        "ok",
		Jobs:          s.m.NumJobs(),
		Window:        s.m.Window(),
		Sensors:       s.m.Sensors(),
		Shards:        s.m.NumShards(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		LastTickError: lastErr,
		Classes:       s.ClassNames(),
	}
	if lastErr != "" {
		resp.Status = "degraded"
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := s.Health()
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// retryAfterSeconds rounds the configured backoff up to the whole seconds
// the Retry-After header speaks, never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
