package main

import "time"

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same table; the smoke test pins the two against each
// other so neither can drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*result, error)
}

// defaultSeconds is the timed window every workload measures, the
// run_seconds of BENCHMARK.json.
const defaultSeconds = 10

// workloads lists the benchmark's traffic mixes. Each prints every
// end-to-end metric; what an "item" and the headline latency mean per
// workload is fixed here and in README.md:
//
//	workload        item                  latency_p50_ms
//	steady-http     accepted sample       sample arrival → served prediction (freshness)
//	backfill-ndjson accepted sample       round trip of one 1024-sample request
//	backfill-binary accepted sample       round trip of one 1024-sample request
//	tick-full       classified row        one Tick()
//	tick-sparse     tick                  one Tick()
//
// The offline pipeline (GenerateDataset+TrainRFCov, the paper reproduction
// itself) has no workload of its own: one repetition is over a second of
// work that cannot be cut finer from outside, and on this host no reading
// of such a unit repeats to within a quarter. Every workload's set-up runs
// that pipeline, so its cost is setup_s, its stages are the traced run's
// telemetry/dataset/preprocess/forest/drift set-up metrics, and its
// fidelity is accuracy_pct.
var workloads = []workloadDef{
	{Name: "steady-http", run: runSteady,
		Why: "open loop, 1000 jobs at 9 Hz over loopback with reads beside writes: every sample dirties a job, so tick work dominates CPU; carries freshness"},
	{Name: "backfill-ndjson", run: runBackfillNDJSON,
		Why: "closed loop, 2 connections, 64 jobs, 1024-sample NDJSON batches: parse, admission, queue hop and Push dominate; ticks classify at most 64 rows"},
	{Name: "backfill-binary", run: runBackfillBinary,
		Why: "the same backfill in binary framing: shares the ingest layer but not the parser, so a parser gain that costs the binary path shows"},
	{Name: "tick-full", run: runTickFull,
		Why: "in process, one partition, 2000 jobs taking turns 250 a tick: flat-kernel classify and the per-row drift scan dominate, no HTTP or scheduler interplay"},
	{Name: "tick-sparse", run: runTickSparse,
		Why: "in process, one partition, 10000 resident jobs with 2 dirty per tick: the collect walk over idle jobs dominates, and it carries resident memory"},
}

// endToEnd is what a user of the system sees. Bounds were fixed from ten
// runs of the committed code on 2 shared vCPUs (README.md has the spreads).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_item", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_item", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "heap_bytes_per_job", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "accuracy_pct", Unit: "%", Better: "higher", Bound: 0.15},
}

// perLayer comes from the traced run. The name is <module>.<metric>; a
// layer the workload never enters reports 0.
var perLayer = []metricDef{
	{Name: "server.handler_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "server.self_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "server.ingest_req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_req_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.freshness_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.freshness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "server.throttled_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.decode_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "wire.ndjson_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "wire.binary_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "shard.ingest_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "shard.self_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "shard.tick_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.tick_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.partition_skew", Unit: "ratio", Better: "lower"},
	{Name: "fleet.ingest_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "fleet.tick_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "fleet.tick_self_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "fleet.tick_ns_per_resident", Unit: "ns", Better: "lower"},
	{Name: "fleet.rows_per_tick", Unit: "count", Better: "higher"},
	{Name: "fleet.cls_per_sample", Unit: "ratio", Better: "lower"},
	{Name: "fleet.allocs_per_tick", Unit: "count", Better: "lower"},
	{Name: "fleet.prediction_read_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.push_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "stream.features_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "forest.classify_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "forest.rows_per_call", Unit: "count", Better: "higher"},
	{Name: "forest.fit_s", Unit: "s", Better: "lower"},
	{Name: "forest.predict_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "drift.score_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "drift.unknown_share", Unit: "ratio", Better: "lower"},
	{Name: "drift.fit_s", Unit: "s", Better: "lower"},
	{Name: "events.publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "events.published_per_s", Unit: "1/s", Better: "lower"},
	{Name: "events.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.observe_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "adapt.observe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "telemetry.simulate_s", Unit: "s", Better: "lower"},
	{Name: "dataset.build_s", Unit: "s", Better: "lower"},
	{Name: "preprocess.embed_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_mb_peak", Unit: "MB", Better: "lower"},
	{Name: "loadgen.late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower"},
	{Name: "tracing.overhead_share", Unit: "ratio", Better: "lower"},
}

// sizes fixes every load parameter. fullSizes is what BENCHMARK.json runs;
// the smoke test shrinks it so the whole ladder runs in seconds.
type sizes struct {
	simScale      float64 // telemetry simulation scale (1.0 = the paper's 3,430 jobs)
	trees         int     // forest size
	steadyJobs    int     // steady-http resident jobs
	resident      int     // tick-full resident jobs
	fullDirty     int     // tick-full jobs dirtied per tick
	sparse        int     // tick-sparse resident jobs
	sparseDirty   int     // tick-sparse jobs dirtied per tick
	backfillJobs  int     // backfill jobs, split over two connections
	backfillBatch int     // samples per backfill request
	steadyBatch   int     // samples per steady-http request
	probes        int     // steady-http freshness probe jobs
	setups        int     // set-ups per untraced run; setup_s is their median
	full          bool    // the committed sizes: the accuracy anchors and the open-loop hygiene rule apply
}

var fullSizes = sizes{
	simScale: 0.08, trees: 100,
	steadyJobs: 1000, resident: 2000, fullDirty: 250, sparse: 10000, sparseDirty: 2,
	backfillJobs: 64, backfillBatch: 1024, steadyBatch: 128,
	probes: 8, setups: 3, full: true,
}

const (
	// sampleHz is the paper's DCGM cadence: 540 samples per 60 s window.
	sampleHz = 9.0
	// tickEvery is the production inference cadence (wccserve -tick default).
	tickEvery = 10 * time.Millisecond
	// probeBase is the first freshness-probe job ID, clear of every resident job.
	probeBase = 1 << 19
	// datasetName is the challenge dataset every workload trains on.
	datasetName = "60-middle-1"
	// modelSeed is the provenance of the model the serving workloads serve.
	// It is fixed, as a deployed artifact is: -seed varies where in its
	// series each live job reads.
	// Were the model retrained per seed, its size and calibration (and with
	// them tick cost, by over a tenth) would move with the seed, and runs on
	// different seeds could not be held to one bound.
	modelSeed = 1
	// liveSeed is the simulation the live jobs are cut from: not the one the
	// model trained on, and the same on every run (see feed).
	liveSeed = 1009
	// seedOneAccuracy is the test accuracy recorded for modelSeed at the
	// committed sizes.
	seedOneAccuracy = 87.74
)
