package main

import (
	"time"

	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newLayerMetrics starts every per-layer metric at 0, the reading for a
// layer the workload never enters.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// stageMetrics reports the offline pipeline's per-package times.
func stageMetrics(m map[string]float64, st stageTimes) {
	m["telemetry.simulate_s"] = st.simulate
	m["dataset.build_s"] = st.build
	m["preprocess.embed_s"] = st.embed
	m["forest.fit_s"] = st.fit
	m["forest.predict_rows_per_s"] = ratio(float64(st.testRows), st.predict)
	m["drift.fit_s"] = st.driftFit
}

// runtimeMetrics reports what the Go runtime spent inside the window.
func runtimeMetrics(m map[string]float64, w window) {
	m["runtime.gc_cpu_share"] = ratio(w.gcCPU, w.cpu)
	m["runtime.heap_mb_peak"] = w.heapPeakMB
}

// sampleRef is one captured (job, sample) pair of a run.
type sampleRef struct {
	job    int
	values []float64
}

// maxCapture bounds how many of a run's samples the replays go through.
const maxCapture = 1 << 16

// captureTail returns the last maxCapture of the n samples a run sent, at(i)
// being its i-th.
func captureTail(n int, at func(i int) (int, []float64)) []sampleRef {
	lo := max(0, n-maxCapture)
	out := make([]sampleRef, 0, n-lo)
	for i := lo; i < n; i++ {
		job, v := at(i)
		out = append(out, sampleRef{job, v})
	}
	return out
}

// throughputLoss is the tracing overhead of a closed loop: how far the
// traced window's items per second fall short of the untraced reference's.
func throughputLoss(ref window, refItems float64, w window, items float64) float64 {
	untraced := ratio(refItems, ref.wall)
	return ratio(untraced-ratio(items, w.wall), untraced)
}

// replayFloor is the least time each replayed layer is timed for, and
// replayChunk how many calls are timed together. A layer's cost is the fast
// quartile of its chunks, for the reason slices are: a chunk the hypervisor
// interrupted reads several times too slow.
const (
	replayFloor = 50 * time.Millisecond
	replayChunk = 512
)

// timeLoop calls call(0), call(1), … call(n-1), call(0), … in chunks until
// replayFloor has gone by and returns nanoseconds per call.
func timeLoop(n int, call func(i int)) float64 {
	var perCall []float64
	i := 0
	for t0 := time.Now(); time.Since(t0) < replayFloor; {
		c0 := time.Now()
		for k := 0; k < replayChunk; k++ {
			call(i)
			if i++; i == n {
				i = 0
			}
		}
		perCall = append(perCall, float64(time.Since(c0))/replayChunk)
	}
	return fast(perCall, 0.25, true)
}

// replayLayers times the layers that have no interface to interpose on by
// pushing the run's captured samples straight through their public
// functions: wire.IngestDecoder, WindowedEmbedder.Push and FeaturesInto,
// Calibration.Score and trace.Recorder.Observe. With bare set it also
// replays them on a bare fleet.Monitor (the HTTP workloads get that number
// from their reference check instead).
func (s *serving) replayLayers(m map[string]float64, capture []sampleRef, bare bool) error {
	if len(capture) == 0 {
		return nil
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	var nd, bin []byte
	for _, c := range capture {
		nd = appendNDJSON(nd, c.job, c.values)
		bin = wire.AppendIngestRecord(bin, int64(c.job), c.values)
	}
	m["wire.ndjson_bytes_per_sample"] = float64(len(nd)) / float64(len(capture))
	m["wire.binary_bytes_per_sample"] = float64(len(bin)) / float64(len(capture))
	dec := wire.NewIngestDecoder(bin)
	m["wire.decode_ns_per_sample"] = timeLoop(len(capture), func(int) {
		rec, ok := dec.Next()
		if !ok { // body consumed: start over, keeping the arena's storage
			note(dec.Err())
			arena := dec.Arena[:0]
			dec = wire.NewIngestDecoder(bin)
			dec.Arena = arena
			rec, _ = dec.Next()
		}
		note(rec.Err)
	})

	// One embedder per captured job, up to a cap that keeps the replay's
	// working set near the run's: embedders are 30 KB each and Push cost is
	// mostly the cache misses of reaching one.
	const maxEmbedders = 2048
	sensors := s.core.Sensors()
	embOf := map[int]*stream.WindowedEmbedder{}
	var embs []*stream.WindowedEmbedder
	var kept []sampleRef
	var keptEmb []*stream.WindowedEmbedder
	for _, c := range capture {
		e, ok := embOf[c.job]
		if !ok {
			if len(embs) == maxEmbedders {
				continue
			}
			var err error
			if e, err = stream.NewWindowedEmbedder(s.window, sensors, s.mdl.res.Scaler); err != nil {
				return err
			}
			for step := 0; step < s.window; step++ {
				if err := e.Push(s.feed.sample(c.job, step)); err != nil {
					return err
				}
			}
			embOf[c.job] = e
			embs = append(embs, e)
		}
		kept = append(kept, c)
		keptEmb = append(keptEmb, e)
	}
	m["stream.push_ns_per_sample"] = timeLoop(len(kept), func(i int) { note(keptEmb[i].Push(kept[i].values)) })
	x := mat.New(len(embs), embs[0].FeatureDim())
	m["stream.features_ns_per_row"] = timeLoop(len(embs), func(i int) { note(embs[i].FeaturesInto(x.Row(i))) })
	if firstErr != nil {
		return firstErr
	}

	probs, err := s.mdl.res.Model.PredictProbaBatch(x)
	if err != nil {
		return err
	}
	cal := s.mdl.res.Drift
	var sink float64
	m["drift.score_ns_per_row"] = timeLoop(x.Rows, func(i int) { sink += cal.Score(probs.Row(i), x.Row(i)).FeatDist })
	_ = sink // keeps the compiler from discarding the scoring

	rec := trace.NewRecorder()
	start := time.Now()
	m["trace.observe_ns_per_span"] = timeLoop(1, func(int) { rec.Observe(trace.StageIngest, start, time.Microsecond, 256) })

	if bare {
		mon, err := fleet.New(fleet.Config{
			Window: s.window, Sensors: sensors, Scaler: s.mdl.res.Scaler,
			Model: s.mdl.res.Model, Drift: cal,
		})
		if err != nil {
			return err
		}
		for job := range embOf {
			for step := 0; step < s.window; step++ {
				if err := mon.Ingest(job, s.feed.sample(job, step)); err != nil {
					return err
				}
			}
		}
		m["fleet.ingest_ns_per_sample"] = timeLoop(len(kept), func(i int) { note(mon.Ingest(kept[i].job, kept[i].values)) })
	}
	return firstErr
}

// coreCounts is the serving core's cumulative counters at one instant.
type coreCounts struct {
	samples, classed, ticks, unknowns float64
	published, dropped                float64
}

func (s *serving) counts() coreCounts {
	st := s.bus.Stats()
	return coreCounts{
		samples: float64(s.core.SamplesIngested()), classed: float64(s.core.Classifications()),
		ticks: float64(s.core.Ticks()), unknowns: float64(s.core.Unknowns()),
		published: float64(st.Published), dropped: float64(st.Dropped),
	}
}

// spanMetrics turns the traced window's spans and counter deltas into the
// shard, fleet, forest, adapt and events metrics. a and b are the core's
// counters at the window's edges.
func (s *serving) spanMetrics(m map[string]float64, rec *recorder, w window, a, b coreCounts) {
	tot := rec.totals()
	tick, cls, obs, pub := tot[kTick], tot[kClassify], tot[kObserve], tot[kPublish]
	samples := b.samples - a.samples
	rows := b.classed - a.classed
	parts := float64(s.core.NumShards())

	ing := tot[kIngest]
	m["shard.ingest_ns_per_sample"] = ratio(ing.ns, float64(ing.count))
	m["shard.tick_busy_share"] = ratio(tick.ns/1e9, w.wall*parts)
	m["shard.tick_cpu_share"] = ratio(tick.ns/1e9, w.cpu)
	maxJobs, sumJobs := 0.0, 0.0
	for _, st := range s.core.ShardStats() {
		sumJobs += float64(st.Jobs)
		if float64(st.Jobs) > maxJobs {
			maxJobs = float64(st.Jobs)
		}
	}
	m["shard.partition_skew"] = ratio(maxJobs*parts, sumJobs)

	m["fleet.tick_ns_per_row"] = ratio(tick.ns, tick.items)
	m["fleet.tick_self_ns_per_row"] = ratio(tick.ns-cls.ns-obs.ns-pub.ns, tick.items)
	m["fleet.tick_ns_per_resident"] = ratio(tick.ns, float64(tick.count)*sumJobs/parts)
	m["fleet.rows_per_tick"] = ratio(tick.items, float64(tick.count))
	m["fleet.cls_per_sample"] = ratio(rows, samples)
	m["fleet.allocs_per_tick"] = ratio(w.allocObjs, b.ticks-a.ticks)
	m["fleet.prediction_read_ns"] = ratio(tot[kPrediction].ns, float64(tot[kPrediction].count))
	m["fleet.snapshot_ms"] = ratio(tot[kSnapshot].ns/1e6, float64(tot[kSnapshot].count))

	m["forest.classify_ns_per_row"] = ratio(cls.ns, cls.items)
	m["forest.rows_per_call"] = ratio(cls.items, float64(cls.count))
	m["adapt.observe_ns_per_row"] = ratio(obs.ns, float64(obs.count))
	m["drift.unknown_share"] = ratio(b.unknowns-a.unknowns, rows)
	m["events.publish_ns_per_event"] = ratio(pub.ns, float64(pub.count))
	m["events.published_per_s"] = ratio(b.published-a.published, w.wall)
	m["events.dropped"] = b.dropped - a.dropped
}

// checkEvents fails the run when the in-process subscriber lost an event:
// the bus drops rather than blocks, and a drop here means the push plane
// could not keep up with this workload.
func (s *serving) checkEvents(res *result, a, b coreCounts) {
	if d := b.dropped - a.dropped; d > 0 {
		res.fail("event bus dropped %g events", d)
	}
}
