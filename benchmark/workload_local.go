package main

import "time"

func runTickFull(c *runCtx) (*result, error) {
	return runTick(c, c.sz.resident, c.sz.fullDirty, false)
}

func runTickSparse(c *runCtx) (*result, error) {
	return runTick(c, c.sz.sparse, c.sz.sparseDirty, true)
}

// runTick is the in-process tick loop on one partition: every iteration
// ingests one sample for each of the next dirty jobs (taking turns through
// the registry), then calls Tick, which must classify exactly those.
// perTick selects the unit of work: ticks for tick-sparse, where the walk
// over idle jobs is the cost, classified rows for tick-full.
func runTick(c *runCtx, jobs, dirty int, perTick bool) (*result, error) {
	opts := servingOpts{jobs: jobs, shards: 1}
	e, setupS, err := repeatSetup(c.setups(), func() (*serving, error) { return newServing(c, opts) })
	if err != nil {
		return nil, err
	}
	defer func() { _ = e.close() }() // nothing to drain in process; close only stops the subscriber
	res := &result{}

	at := func(g int) (int, []float64) {
		job := g % jobs
		return job, e.feed.sample(job, e.window+g/jobs)
	}
	sent := 0 // run samples ingested so far, across stretches
	var slices []slice
	var a, b coreCounts
	var items, refItems float64
	// done is the work finished since the stretch began, in the workload's unit.
	done := func(since coreCounts) float64 {
		now := e.counts()
		if perTick {
			return now.ticks - since.ticks
		}
		return now.classed - since.classed
	}
	ref, w := c.timed(func(d time.Duration, main bool) {
		before := e.counts()
		var sl *slicer
		if main {
			a = before
			sl = newSlicer(tickReading.every)
		}
		for end := time.Now().Add(d); time.Now().Before(end); {
			res.attempted++
			var ingestErr error
			for k := 0; k < dirty; k++ {
				job, v := at(sent)
				sent++
				if err := e.mon.Ingest(job, v); err != nil {
					ingestErr = err
				}
			}
			t0 := time.Now()
			st, err := e.mon.Tick()
			sl.observe(ms(time.Since(t0)))
			if err != nil || ingestErr != nil || st.Classified != dirty {
				res.failed++
			}
			if main && sl.due() {
				sl.cut(done(before))
			}
		}
		if main {
			b = e.counts()
			items = done(before)
			slices = sl.finish(items)
		} else {
			refItems += done(before)
		}
	})
	res.note("steal_s=%.3f", w.stealS)
	if res.failed > 0 {
		res.fail("%d of %d ticks failed or classified other than the %d jobs dirtied", res.failed, res.attempted, dirty)
	}
	e.checkEvents(res, a, b)
	checkAccuracy(res, c, e.mdl.res.Accuracy)

	if !c.traced {
		res.metrics = endToEndMetrics(tickReading, setupS, slices, items, w, e.heapPerJob, e.mdl.res.Accuracy)
		return res, nil
	}
	m := newLayerMetrics()
	stageMetrics(m, e.mdl.stages)
	runtimeMetrics(m, w)
	e.spanMetrics(m, c.rec, w, a, b)
	m["tracing.overhead_share"] = throughputLoss(ref, refItems, w, items)
	if err := e.replayLayers(m, captureTail(sent, at), true); err != nil {
		return nil, err
	}
	m["shard.self_ns_per_sample"] = m["shard.ingest_ns_per_sample"] - m["fleet.ingest_ns_per_sample"]
	res.metrics = m
	return res, nil
}
