package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// Metrics writes Prometheus text exposition. Every series the process
// exports — serving layer here, wcc_cluster_* in internal/cluster — goes
// through it, so each one carries its # HELP and # TYPE lines.
type Metrics struct{ W io.Writer }

// Family writes the HELP/TYPE header of one metric; labelled series follow
// it as plain sample lines written by the caller.
func (m Metrics) Family(name, help, typ string) {
	fmt.Fprintf(m.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes one unlabelled counter.
func (m Metrics) Counter(name, help string, v uint64) {
	m.Family(name, help, "counter")
	fmt.Fprintf(m.W, "%s %d\n", name, v)
}

// Gauge writes one unlabelled gauge.
func (m Metrics) Gauge(name, help string, v float64) {
	m.Family(name, help, "gauge")
	fmt.Fprintf(m.W, "%s %g\n", name, v)
}

// handleMetrics renders Prometheus-style text metrics: monotonic counters
// for scrapers that compute their own rates, plus gauges — among them
// tick-latency quantiles over the last tickWindow ticks.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The tick ring is shared with every tick loop's hot path, so the
	// scrape must hold tickMu only to copy: the allocation happens before
	// taking the lock and the O(n log n) sort after releasing it — a slow
	// scraper never stretches the critical section a tick write sits behind.
	durs := make([]time.Duration, 0, tickWindow)
	s.tickMu.Lock()
	n := s.tickN
	if n > tickWindow {
		n = tickWindow
	}
	durs = append(durs, s.tickDur[:n]...)
	tickErrs := s.tickErrs
	s.tickMu.Unlock()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	mw := Metrics{W: w}

	mw.Counter("wcc_samples_ingested_total", "Telemetry samples accepted into the fleet.", s.m.SamplesIngested())
	mw.Counter("wcc_classifications_total", "Per-job classifications produced by inference ticks.", s.m.Classifications())
	mw.Counter("wcc_ticks_total", "Completed batched inference ticks.", s.m.Ticks())
	mw.Counter("wcc_tick_errors_total", "Inference ticks that returned an error.", tickErrs)
	mw.Counter("wcc_model_swaps_total", "Zero-downtime classifier hot-swaps.", s.m.Swaps())
	mw.Counter("wcc_jobs_evicted_total", "Jobs removed from the registry (EndJob or idle eviction).", s.m.Evictions())
	ds := s.m.DriftStats()
	mw.Counter("wcc_unknown_total", "Classifications rejected as unknown workloads by the open-set threshold.", ds.Unknowns)
	mw.Gauge("wcc_drift_score", "Fleet input-drift score: maximum per-sensor PSI against the training reference.", ds.Score)
	if ds.Enabled {
		mw.Family("wcc_drift_sensor_psi", "Per-sensor PSI of live input against the training reference.", "gauge")
		for i, v := range ds.SensorPSI {
			fmt.Fprintf(w, "wcc_drift_sensor_psi{sensor=\"%d\"} %g\n", i, v)
		}
	}
	mw.Counter("wcc_ingest_throttled_total", "Ingest requests answered 429 because the queue was full.", s.throttled.Load())
	mw.Counter("wcc_ingest_line_errors_total", "Ingest lines rejected (malformed or unacceptable samples).", s.lineErrs.Load())
	mw.Gauge("wcc_jobs", "Jobs currently registered in the fleet.", float64(s.m.NumJobs()))
	mw.Gauge("wcc_ingest_queue_depth", "Parsed ingest batches waiting for a worker.", float64(len(s.queue)))
	mw.Gauge("wcc_ingest_queue_capacity", "Bound on queued ingest batches.", float64(cap(s.queue)))
	mw.Gauge("wcc_uptime_seconds", "Seconds since the serving layer started.", time.Since(s.start).Seconds())
	writeRuntimeMetrics(mw)

	if s.cfg.Adapt != nil {
		s.writeAdaptMetrics(mw)
	}

	es := s.bus.Stats()
	mw.Counter("wcc_events_published_total", "Events published on the push-plane bus.", es.Published)
	mw.Counter("wcc_events_dropped_total", "Events a subscriber missed because its queue was full.", es.Dropped)
	mw.Counter("wcc_event_subscribers_evicted_total", "Event subscribers evicted for falling behind.", es.Evicted)
	mw.Gauge("wcc_event_subscribers", "Live /v1/events subscribers.", float64(es.Subscribers))

	mw.Family("wcc_tick_latency_seconds", fmt.Sprintf("Batched inference tick latency over the last %d ticks.", tickWindow), "summary")
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "wcc_tick_latency_seconds{quantile=%q} %g\n", fmt.Sprintf("%g", q), quantile(durs, q).Seconds())
	}

	s.writeStageMetrics(mw)
	s.writeShardMetrics(mw)
}

// writeRuntimeMetrics renders the Go runtime's health, read with
// runtime/metrics: unlike runtime.ReadMemStats it does not stop the world,
// so a scrape costs the ingest and tick paths nothing.
func writeRuntimeMetrics(mw Metrics) {
	rt := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(rt)
	mw.Gauge("wcc_go_goroutines", "Live goroutines.", float64(rt[0].Value.Uint64()))
	mw.Gauge("wcc_go_heap_live_bytes", "Heap bytes occupied by objects the last garbage collection found live.", float64(rt[1].Value.Uint64()))
	mw.Family("wcc_go_gc_pause_cpu_seconds_total", "Cumulative CPU seconds the process spent paused by the garbage collector (pause time x GOMAXPROCS).", "counter")
	fmt.Fprintf(mw.W, "wcc_go_gc_pause_cpu_seconds_total %g\n", rt[2].Value.Float64())
}

// writeAdaptMetrics renders the continual-learning flywheel's state: the
// lifecycle phase as a one-hot labelled gauge (so dashboards can plot the
// state machine), buffer/family/candidate gauges, shadow-scoring evidence,
// and the promotion/abort counters.
func (s *Server) writeAdaptMetrics(mw Metrics) {
	st := s.cfg.Adapt.Status()
	w := mw.W

	mw.Family("wcc_adapt_phase", "Flywheel lifecycle phase (one-hot: buffer, train, shadow, promoted).", "gauge")
	for _, p := range []string{"buffer", "train", "shadow", "promoted"} {
		v := 0
		if string(st.Phase) == p {
			v = 1
		}
		fmt.Fprintf(w, "wcc_adapt_phase{phase=%q} %d\n", p, v)
	}
	mw.Counter("wcc_adapt_observed_windows_total", "Live windows observed by the flywheel.", st.Observed)
	mw.Gauge("wcc_adapt_buffered", "Rejected windows currently in the reservoir.", float64(st.Buffered))
	mw.Gauge("wcc_adapt_buffer_capacity", "Reservoir capacity.", float64(st.BufferedCap))
	mw.Counter("wcc_adapt_buffer_dropped_total", "Rejected windows reservoir-sampled away after the buffer filled.", st.Dropped)
	mw.Gauge("wcc_adapt_families", "Candidate new-workload families from the last clustering pass.", float64(len(st.Families)))
	if st.Candidate != nil {
		mw.Gauge("wcc_adapt_candidate_classes", "Classes in the candidate model (base plus novel).", float64(st.Candidate.Classes))
		mw.Gauge("wcc_adapt_candidate_novel_classes", "Novel classes the candidate adds.", float64(st.Candidate.Novel))
	}
	if st.Shadow != nil {
		mw.Counter("wcc_adapt_shadow_windows_total", "Live windows shadow-scored by the candidate.", st.Shadow.Windows)
		mw.Counter("wcc_adapt_shadow_compared_total", "Serving-accepted windows in the agreement denominator.", st.Shadow.Compared)
		mw.Gauge("wcc_adapt_shadow_agreement", "Candidate/serving class agreement on accepted windows.", st.Shadow.Agreement)
		mw.Gauge("wcc_adapt_serving_unknown_rate", "Serving model's rejected fraction of shadow-scored windows.", st.Shadow.ServingUnknownRate)
		mw.Gauge("wcc_adapt_candidate_unknown_rate", "Candidate model's rejected fraction of shadow-scored windows.", st.Shadow.CandidateUnknownRate)
	}
	gateReady := 0.0
	if st.GateReady {
		gateReady = 1
	}
	mw.Gauge("wcc_adapt_gate_ready", "1 when the shadow candidate passes the promotion quality gate.", gateReady)
	mw.Counter("wcc_adapt_promotions_total", "Candidates promoted into serving.", st.Promotions)
	mw.Counter("wcc_adapt_aborts_total", "Candidates discarded by operator abort.", st.Aborts)
}

// writeStageMetrics renders the per-stage serving-latency histograms as
// proper Prometheus histogram series — cumulative _bucket rows per le
// bound, _sum and _count — one set per pipeline stage that has recorded at
// least one span.
func (s *Server) writeStageMetrics(mw Metrics) {
	snap, w := s.tracer.Snapshot(), mw.W
	mw.Family("wcc_stage_latency_seconds", "Per-stage serving pipeline latency (parse, queue, ingest, collect, classify, writeback).", "histogram")
	for _, st := range snap.Stages {
		if st.Count == 0 {
			continue
		}
		name := st.Stage.String()
		for i, ub := range trace.Buckets {
			fmt.Fprintf(w, "wcc_stage_latency_seconds_bucket{stage=%q,le=\"%g\"} %d\n", name, ub, st.Cumulative[i])
		}
		fmt.Fprintf(w, "wcc_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, st.Count)
		fmt.Fprintf(w, "wcc_stage_latency_seconds_sum{stage=%q} %g\n", name, st.Sum)
		fmt.Fprintf(w, "wcc_stage_latency_seconds_count{stage=%q} %d\n", name, st.Count)
	}
}

// writeShardMetrics renders the per-shard series, one HELP/TYPE block per
// metric with a shard label per series, so a scraper can spot a cold or
// overloaded shard that the fleet-wide sums average away.
func (s *Server) writeShardMetrics(mw Metrics) {
	per, w := s.m.ShardStats(), mw.W
	mw.Gauge("wcc_shards", "Monitor shards in the serving core.", float64(len(per)))
	shardCounter := func(name, help string, v func(fleet.ShardStats) uint64) {
		mw.Family(name, help, "counter")
		for i, st := range per {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, v(st))
		}
	}
	mw.Family("wcc_shard_jobs", "Jobs currently registered on the shard.", "gauge")
	for i, st := range per {
		fmt.Fprintf(w, "wcc_shard_jobs{shard=\"%d\"} %d\n", i, st.Jobs)
	}
	shardCounter("wcc_shard_samples_ingested_total", "Telemetry samples accepted by the shard.",
		func(st fleet.ShardStats) uint64 { return st.Samples })
	shardCounter("wcc_shard_classifications_total", "Per-job classifications produced by the shard's ticks.",
		func(st fleet.ShardStats) uint64 { return st.Classifications })
	shardCounter("wcc_shard_ticks_total", "Completed inference passes on the shard.",
		func(st fleet.ShardStats) uint64 { return st.Ticks })
	shardCounter("wcc_shard_jobs_evicted_total", "Jobs removed from the shard's registry.",
		func(st fleet.ShardStats) uint64 { return st.Evictions })
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
