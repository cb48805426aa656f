package server

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/shard"
	"repro/internal/trace"
)

// handleMetrics renders Prometheus-style text metrics: monotonic counters
// for scrapers that compute their own rates, plus convenience gauges —
// samples/sec and classifications/sec over the interval since the previous
// scrape (since start on the first), and tick-latency quantiles over the
// last tickWindow ticks.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	samples := s.m.SamplesIngested()
	classed := s.m.Classifications()

	s.scrapeMu.Lock()
	since := s.start
	prevSamples, prevClassed := uint64(0), uint64(0)
	if !s.lastScrape.IsZero() {
		since = s.lastScrape
		prevSamples, prevClassed = s.lastSamples, s.lastClassed
	}
	dt := now.Sub(since).Seconds()
	var sampleRate, classRate float64
	if dt > 0 {
		sampleRate = float64(samples-prevSamples) / dt
		classRate = float64(classed-prevClassed) / dt
	}
	s.lastScrape, s.lastSamples, s.lastClassed = now, samples, classed
	s.scrapeMu.Unlock()

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
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("wcc_samples_ingested_total", "Telemetry samples accepted into the fleet.", samples)
	counter("wcc_classifications_total", "Per-job classifications produced by inference ticks.", classed)
	counter("wcc_ticks_total", "Completed batched inference ticks.", s.m.Ticks())
	counter("wcc_tick_errors_total", "Inference ticks that returned an error.", tickErrs)
	counter("wcc_model_swaps_total", "Zero-downtime classifier hot-swaps.", s.m.Swaps())
	counter("wcc_jobs_evicted_total", "Jobs removed from the registry (EndJob or idle eviction).", s.m.Evictions())
	ds := s.m.DriftStats()
	counter("wcc_unknown_total", "Classifications rejected as unknown workloads by the open-set threshold.", ds.Unknowns)
	gauge("wcc_drift_score", "Fleet input-drift score: maximum per-sensor PSI against the training reference.", ds.Score)
	if ds.Enabled {
		fmt.Fprintf(w, "# HELP wcc_drift_sensor_psi Per-sensor PSI of live input against the training reference.\n# TYPE wcc_drift_sensor_psi gauge\n")
		for i, v := range ds.SensorPSI {
			fmt.Fprintf(w, "wcc_drift_sensor_psi{sensor=\"%d\"} %g\n", i, v)
		}
	}
	counter("wcc_ingest_throttled_total", "Ingest requests answered 429 because the queue was full.", s.throttled.Load())
	counter("wcc_ingest_line_errors_total", "Ingest lines rejected (malformed or unacceptable samples).", s.lineErrs.Load())
	gauge("wcc_jobs", "Jobs currently registered in the fleet.", float64(s.m.NumJobs()))
	gauge("wcc_ingest_queue_depth", "Parsed ingest batches waiting for a worker.", float64(len(s.queue)))
	gauge("wcc_ingest_queue_capacity", "Bound on queued ingest batches.", float64(cap(s.queue)))
	gauge("wcc_samples_per_second", "Ingest rate over the interval since the previous scrape.", sampleRate)
	gauge("wcc_classifications_per_second", "Classification rate over the interval since the previous scrape.", classRate)
	gauge("wcc_uptime_seconds", "Seconds since the serving layer started.", time.Since(s.start).Seconds())

	if s.cfg.Adapt != nil {
		s.writeAdaptMetrics(w, counter, gauge)
	}

	es := s.bus.Stats()
	counter("wcc_events_published_total", "Events published on the push-plane bus.", es.Published)
	counter("wcc_events_dropped_total", "Events a subscriber missed because its queue was full.", es.Dropped)
	counter("wcc_event_subscribers_evicted_total", "Event subscribers evicted for falling behind.", es.Evicted)
	gauge("wcc_event_subscribers", "Live /v1/events subscribers.", float64(es.Subscribers))

	fmt.Fprintf(w, "# HELP wcc_tick_latency_seconds Batched inference tick latency over the last %d ticks.\n", tickWindow)
	fmt.Fprintf(w, "# TYPE wcc_tick_latency_seconds summary\n")
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "wcc_tick_latency_seconds{quantile=%q} %g\n", fmt.Sprintf("%g", q), quantile(durs, q).Seconds())
	}

	s.writeStageMetrics(w)
	s.writeShardMetrics(w)
}

// writeAdaptMetrics renders the continual-learning flywheel's state: the
// lifecycle phase as a one-hot labelled gauge (so dashboards can plot the
// state machine), buffer/family/candidate gauges, shadow-scoring evidence,
// and the promotion/abort counters.
func (s *Server) writeAdaptMetrics(w http.ResponseWriter, counter func(name, help string, v uint64), gauge func(name, help string, v float64)) {
	st := s.cfg.Adapt.Status()

	fmt.Fprintf(w, "# HELP wcc_adapt_phase Flywheel lifecycle phase (one-hot: buffer, train, shadow, promoted, aborted).\n# TYPE wcc_adapt_phase gauge\n")
	for _, p := range []string{"buffer", "train", "shadow", "promoted", "aborted"} {
		v := 0
		if string(st.Phase) == p {
			v = 1
		}
		fmt.Fprintf(w, "wcc_adapt_phase{phase=%q} %d\n", p, v)
	}
	counter("wcc_adapt_observed_windows_total", "Live windows observed by the flywheel.", st.Observed)
	gauge("wcc_adapt_buffered", "Rejected windows currently in the reservoir.", float64(st.Buffered))
	gauge("wcc_adapt_buffer_capacity", "Reservoir capacity.", float64(st.BufferedCap))
	counter("wcc_adapt_buffer_dropped_total", "Rejected windows reservoir-sampled away after the buffer filled.", st.Dropped)
	gauge("wcc_adapt_families", "Candidate new-workload families from the last clustering pass.", float64(len(st.Families)))
	if st.Candidate != nil {
		gauge("wcc_adapt_candidate_classes", "Classes in the candidate model (base plus novel).", float64(st.Candidate.Classes))
		gauge("wcc_adapt_candidate_novel_classes", "Novel classes the candidate adds.", float64(st.Candidate.Novel))
	}
	if st.Shadow != nil {
		counter("wcc_adapt_shadow_windows_total", "Live windows shadow-scored by the candidate.", st.Shadow.Windows)
		counter("wcc_adapt_shadow_compared_total", "Serving-accepted windows in the agreement denominator.", st.Shadow.Compared)
		gauge("wcc_adapt_shadow_agreement", "Candidate/serving class agreement on accepted windows.", st.Shadow.Agreement)
		gauge("wcc_adapt_serving_unknown_rate", "Serving model's rejected fraction of shadow-scored windows.", st.Shadow.ServingUnknownRate)
		gauge("wcc_adapt_candidate_unknown_rate", "Candidate model's rejected fraction of shadow-scored windows.", st.Shadow.CandidateUnknownRate)
	}
	gateReady := 0.0
	if st.GateReady {
		gateReady = 1
	}
	gauge("wcc_adapt_gate_ready", "1 when the shadow candidate passes the promotion quality gate.", gateReady)
	counter("wcc_adapt_promotions_total", "Candidates promoted into serving.", st.Promotions)
	counter("wcc_adapt_aborts_total", "Candidates discarded by operator abort.", st.Aborts)
}

// writeStageMetrics renders the per-stage serving-latency histograms as
// proper Prometheus histogram series — cumulative _bucket rows per le
// bound, _sum and _count — one set per pipeline stage that has recorded at
// least one span.
func (s *Server) writeStageMetrics(w http.ResponseWriter) {
	snap := s.tracer.Snapshot()
	fmt.Fprintf(w, "# HELP wcc_stage_latency_seconds Per-stage serving pipeline latency (parse, queue, ingest, collect, classify, writeback).\n")
	fmt.Fprintf(w, "# TYPE wcc_stage_latency_seconds histogram\n")
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
func (s *Server) writeShardMetrics(w http.ResponseWriter) {
	per := s.m.ShardStats()
	fmt.Fprintf(w, "# HELP wcc_shards Monitor shards in the serving core.\n# TYPE wcc_shards gauge\nwcc_shards %d\n", len(per))
	shardCounter := func(name, help string, v func(shard.Stats) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i, st := range per {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, v(st))
		}
	}
	fmt.Fprintf(w, "# HELP wcc_shard_jobs Jobs currently registered on the shard.\n# TYPE wcc_shard_jobs gauge\n")
	for i, st := range per {
		fmt.Fprintf(w, "wcc_shard_jobs{shard=\"%d\"} %d\n", i, st.Jobs)
	}
	shardCounter("wcc_shard_samples_ingested_total", "Telemetry samples accepted by the shard.",
		func(st shard.Stats) uint64 { return st.Samples })
	shardCounter("wcc_shard_classifications_total", "Per-job classifications produced by the shard's ticks.",
		func(st shard.Stats) uint64 { return st.Classifications })
	shardCounter("wcc_shard_ticks_total", "Completed inference passes on the shard.",
		func(st shard.Stats) uint64 { return st.Ticks })
	shardCounter("wcc_shard_jobs_evicted_total", "Jobs removed from the shard's registry.",
		func(st shard.Stats) uint64 { return st.Evictions })
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
