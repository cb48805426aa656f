package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// loaded is a serving plane with the load generator built for it. They are
// set up, and released, together.
type loaded[L any] struct {
	*serving
	load L
}

// steadyStats is what the steady-http load generator observed in a window.
type steadyStats struct {
	ingest      ingestTally
	reqMS       []float64 // ingest request latency from its due time
	lateMS      []float64 // how late each send started
	freshMS     []float64 // probe: arrival → write-back that includes it
	readMS      []float64 // GET /v1/jobs/{id}/prediction
	snapshotMS  []float64 // GET /v1/jobs
	probes      int
	probeFailed int
	reads       int // prediction and snapshot reads issued
	readFailed  int
}

// add folds another window's counts into st; latency samples are not
// carried over.
func (st *steadyStats) add(o steadyStats) {
	st.ingest.add(o.ingest)
	st.probes += o.probes
	st.probeFailed += o.probeFailed
	st.readFailed += o.readFailed
	st.reads += o.reads
}

// steadyLoad is the steady-http generator's state across windows: the
// sample stream continues where the previous window stopped.
type steadyLoad struct {
	s          *serving
	batch      int
	interval   time.Duration
	bodies     [][]byte // pre-rendered NDJSON batches, in send order
	nextBody   int
	probeSteps []int // per probe job: run samples sent so far
	nextProbe  int
}

func newSteadyLoad(s *serving, c *runCtx) *steadyLoad {
	l := &steadyLoad{s: s, batch: c.sz.steadyBatch, probeSteps: make([]int, s.opts.probes)}
	rate := float64(s.opts.jobs) * sampleHz
	l.interval = time.Duration(float64(l.batch) / rate * float64(time.Second))
	n := int(c.seconds*rate/float64(l.batch)) + 2
	l.bodies = make([][]byte, n)
	for b := range l.bodies {
		var body []byte
		for i := b * l.batch; i < (b+1)*l.batch; i++ {
			job, v := l.at(i)
			body = appendNDJSON(body, job, v)
		}
		l.bodies[b] = body
	}
	return l
}

// at is the i-th resident-job sample of the run: jobs take turns, so each
// emits at sampleHz when samples leave at jobs×sampleHz.
func (l *steadyLoad) at(i int) (int, []float64) {
	job := i % l.s.opts.jobs
	return job, l.s.feed.sample(job, l.s.window+i/l.s.opts.jobs)
}

// run drives one window: connection 1 sends batches on schedule, timing
// each from its due time; connection 2 runs the freshness probe with a
// prediction read per probe and a fleet snapshot per second.
func (l *steadyLoad) run(d time.Duration, sl *slicer) steadyStats {
	var st steadyStats
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := newConn()
		defer conn.CloseIdleConnections()
		for k := 0; l.nextBody < len(l.bodies); k++ {
			due := start.Add(time.Duration(k) * l.interval)
			if !due.Before(end) {
				break
			}
			time.Sleep(time.Until(due))
			st.lateMS = append(st.lateMS, ms(time.Since(due)))
			post(conn, l.s.base, ndjsonContentType, l.bodies[l.nextBody], l.batch, &st.ingest)
			st.reqMS = append(st.reqMS, ms(time.Since(due)))
			l.nextBody++
		}
	}()
	probeTally := l.probe(end, &st, sl)
	wg.Wait()
	st.ingest.add(probeTally) // the sender owns st.ingest until it has finished
	return st
}

const (
	probePace    = 2 * time.Millisecond
	probeTimeout = 5 * time.Second
)

// probe runs the freshness probe until end. It fills the probe and read
// fields of st, which the sender never touches, and returns its own ingest
// tally.
func (l *steadyLoad) probe(end time.Time, st *steadyStats, sl *slicer) ingestTally {
	conn := newConn()
	defer conn.CloseIdleConnections()
	timeout := time.NewTimer(probeTimeout)
	defer timeout.Stop()
	var tally ingestTally
	nextSnapshot := time.Now().Add(time.Second)
	for time.Now().Before(end) {
		p := l.nextProbe % len(l.probeSteps)
		l.nextProbe++
		job := probeBase + p
		body := appendNDJSON(nil, job, l.s.feed.sample(job, l.s.window+l.probeSteps[p]))
		for len(l.s.probe.seen) > 0 {
			<-l.s.probe.seen // stamps of a probe that timed out earlier
		}
		st.probes++
		t0 := time.Now()
		before := tally.failed
		post(conn, l.s.base, ndjsonContentType, body, 1, &tally)
		if tally.failed > before {
			st.probeFailed++
			continue
		}
		l.probeSteps[p]++
		// The job was clean before t0 and only this probe feeds it, so its
		// next write-back necessarily includes the sample just posted, and
		// the prediction is published before the observer is called.
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(probeTimeout)
		seen := false
		for !seen {
			select {
			case ev := <-l.s.probe.seen:
				if ev.job == job {
					fresh := ms(ev.at.Sub(t0))
					st.freshMS = append(st.freshMS, fresh)
					sl.observe(fresh)
					seen = true
				}
			case <-timeout.C:
				st.probeFailed++
				seen = true
			}
		}
		st.reads++
		t1 := time.Now()
		if get(conn, l.s.base+"/v1/jobs/"+strconv.Itoa(job)+"/prediction") {
			st.readMS = append(st.readMS, ms(time.Since(t1)))
		} else {
			st.readFailed++
		}
		if time.Now().After(nextSnapshot) {
			nextSnapshot = nextSnapshot.Add(time.Second)
			st.reads++
			t2 := time.Now()
			if get(conn, l.s.base+"/v1/jobs") {
				st.snapshotMS = append(st.snapshotMS, ms(time.Since(t2)))
			} else {
				st.readFailed++
			}
		}
		time.Sleep(probePace)
	}
	return tally
}

// streams replays every run sample the server accepted: the resident
// jobs' stream in send order, and each probe job's own.
func (l *steadyLoad) streams() []sampleStream {
	return []sampleStream{
		func(ingest func(job int, v []float64)) {
			for i := 0; i < l.nextBody*l.batch; i++ {
				job, v := l.at(i)
				ingest(job, v)
			}
		},
		func(ingest func(job int, v []float64)) {
			for p, n := range l.probeSteps {
				job := probeBase + p
				for k := 0; k < n; k++ {
					ingest(job, l.s.feed.sample(job, l.s.window+k))
				}
			}
		},
	}
}

func runSteady(c *runCtx) (*result, error) {
	opts := servingOpts{jobs: c.sz.steadyJobs, probes: c.sz.probes, http: true}
	e, setupS, err := repeatSetup(c.setups(), func() (loaded[*steadyLoad], error) {
		s, err := newServing(c, opts)
		if err != nil {
			return loaded[*steadyLoad]{}, err
		}
		return loaded[*steadyLoad]{s, newSteadyLoad(s, c)}, nil
	})
	if err != nil {
		return nil, err
	}
	load := e.load
	defer func() { _ = e.close() }() // drainAndCheck reports the close error; this covers early returns
	res := &result{}

	var st, refSt steadyStats
	var slices []slice
	var a, b coreCounts
	ingested := func() float64 { return float64(e.core.SamplesIngested()) }
	ref, w := c.timed(func(d time.Duration, main bool) {
		if !main {
			refSt.add(load.run(d, nil))
			return
		}
		a = e.counts()
		slices = sliced(steadyReading.every, ingested, func(sl *slicer) { st = load.run(d, sl) })
		b = e.counts()
	})
	res.note("steal_s=%.3f", w.stealS)

	all := refSt // counts over every stretch; latencies below are the main window's
	all.add(st)
	checkIngest(res, all.ingest)
	res.attempted += all.probes + all.reads
	res.failed += all.probeFailed + all.readFailed
	if all.probeFailed > 0 || all.readFailed > 0 {
		res.fail("%d of %d probes and %d of %d reads failed", all.probeFailed, all.probes, all.readFailed, all.reads)
	}
	if len(st.freshMS) == 0 {
		res.fail("no freshness probe completed")
	}
	// Open-loop hygiene: when more than a tenth of the sends start over a
	// tick late, the numbers measure the generator, not the server, and the
	// run is failed. Lateness the host explains is reported but not failed:
	// with over a twentieth of the machine's CPU stolen in the window, the
	// generator was off the processor through no doing of the server's. (At
	// smoke-test sizes a window has a handful of sends and one late one is
	// already over a tenth, so the rule is for the committed sizes.)
	late := 0
	for _, v := range st.lateMS {
		if v > ms(tickEvery) {
			late++
		}
	}
	lateShare := ratio(float64(late), float64(len(st.lateMS)))
	stolenShare := ratio(w.stealS, w.wall*float64(runtime.NumCPU()))
	res.note("loadgen late_p50_ms=%.3f late_share=%.4f sends=%d stolen_share=%.4f", quantile(st.lateMS, 0.50), lateShare, len(st.lateMS), stolenShare)
	if c.sz.full && lateShare > 0.10 && stolenShare < 0.05 {
		res.fail("load generator ran late on %.0f%% of sends with %.1f%% of the CPU stolen", lateShare*100, stolenShare*100)
	}
	e.checkEvents(res, a, b)
	checkAccuracy(res, c, e.mdl.res.Accuracy)
	bareS, bareN := e.drainAndCheck(res, load.streams())

	samples := b.samples - a.samples
	if !c.traced {
		res.metrics = endToEndMetrics(steadyReading, setupS, slices, samples, w, e.heapPerJob, e.mdl.res.Accuracy)
		return res, nil
	}
	m := newLayerMetrics()
	stageMetrics(m, e.mdl.stages)
	runtimeMetrics(m, w)
	e.spanMetrics(m, c.rec, w, a, b)
	httpMetrics(m, c.rec, st.ingest, samples, st.reqMS)
	m["server.freshness_p95_ms"] = quantile(st.freshMS, 0.95)
	m["server.freshness_p99_ms"] = quantile(st.freshMS, 0.99)
	m["server.read_p50_ms"] = quantile(st.readMS, 0.50)
	m["server.snapshot_ms"] = quantile(st.snapshotMS, 0.50)
	m["loadgen.late_p50_ms"] = quantile(st.lateMS, 0.50)
	m["loadgen.late_share"] = lateShare
	m["fleet.ingest_ns_per_sample"] = ratio(bareS*1e9, float64(bareN))
	m["shard.self_ns_per_sample"] = m["shard.ingest_ns_per_sample"] - m["fleet.ingest_ns_per_sample"]
	// The rate is fixed, so tracing shows as CPU per sample, not throughput.
	untraced := ratio(ref.cpu, float64(refSt.ingest.accepted))
	m["tracing.overhead_share"] = ratio(ratio(w.cpu, float64(st.ingest.accepted))-untraced, untraced)
	if err := e.replayLayers(m, captureTail(load.nextBody*load.batch, load.at), false); err != nil {
		return nil, err
	}
	res.metrics = m
	return res, nil
}

// httpMetrics reports the server layer: handler time per sample, and the
// handler's self time once the Ingest calls it waited on are taken out.
// Ingest spans are a 1-in-ingestSampleEvery sample, so their total is the
// sampled mean times the samples the window accepted.
func httpMetrics(m map[string]float64, rec *recorder, t ingestTally, samples float64, reqMS []float64) {
	tot := rec.totals()
	h, ing := tot[kHTTPIngest], tot[kIngest]
	m["server.handler_ns_per_sample"] = ratio(h.ns, h.items)
	m["server.self_ns_per_sample"] = ratio(h.ns-ratio(ing.ns, float64(ing.count))*samples, h.items)
	m["server.ingest_req_p50_ms"] = quantile(reqMS, 0.50)
	m["server.ingest_req_p95_ms"] = quantile(reqMS, 0.95)
	m["server.throttled_share"] = ratio(float64(t.throttled), float64(t.requests))
}

// backfillLoad is the closed-loop generator: each connection owns half the
// jobs and replays its own cycle of pre-rendered batches, so per-job order
// is preserved and the bodies cost nothing to produce inside the window.
type backfillLoad struct {
	s      *serving
	binary bool
	batch  int
	cycle  [2][][]byte // per connection
	sent   [2]int      // per connection: batches accepted so far
}

// backfillCycle is how many distinct batches each connection cycles through.
const backfillCycle = 32

func newBackfillLoad(s *serving, c *runCtx, binary bool) *backfillLoad {
	l := &backfillLoad{s: s, binary: binary, batch: c.sz.backfillBatch}
	for conn := range l.cycle {
		l.cycle[conn] = make([][]byte, backfillCycle)
		for b := range l.cycle[conn] {
			var body []byte
			for i := 0; i < l.batch; i++ {
				job, v := l.at(conn, b, i)
				body = appendSample(body, binary, job, v)
			}
			l.cycle[conn][b] = body
		}
	}
	return l
}

// at is sample i of connection conn's b-th batch. A batch is rounds of one
// sample for each of the connection's jobs; the cycle repeats, so a job's
// stream is periodic after pre-fill.
func (l *backfillLoad) at(conn, b, i int) (int, []float64) {
	per := l.s.opts.jobs / 2
	job := conn*per + i%per
	rounds := l.batch / per
	step := (b%backfillCycle)*rounds + i/per
	return job, l.s.feed.sample(job, l.s.window+step)
}

// run drives both connections flat out for d and returns what they saw.
func (l *backfillLoad) run(d time.Duration, sl *slicer) (ingestTally, []float64) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	var tallies [2]ingestTally
	var rtts [2][]float64
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			for time.Now().Before(end) {
				t0 := time.Now()
				post(client, l.s.base, contentType(l.binary), l.cycle[conn][l.sent[conn]%backfillCycle], l.batch, &tallies[conn])
				rtt := ms(time.Since(t0))
				rtts[conn] = append(rtts[conn], rtt)
				sl.observe(rtt)
				l.sent[conn]++
			}
		}()
	}
	wg.Wait()
	tallies[0].add(tallies[1])
	return tallies[0], append(rtts[0], rtts[1]...)
}

// streams replays each connection's accepted batches; the connections
// own disjoint jobs.
func (l *backfillLoad) streams() []sampleStream {
	out := make([]sampleStream, len(l.sent))
	for conn, n := range l.sent {
		out[conn] = func(ingest func(job int, v []float64)) {
			for b := 0; b < n; b++ {
				for i := 0; i < l.batch; i++ {
					job, v := l.at(conn, b, i)
					ingest(job, v)
				}
			}
		}
	}
	return out
}

func (l *backfillLoad) capture() []sampleRef {
	var out []sampleRef
	for b := 0; b < backfillCycle && len(out) < maxCapture; b++ {
		for i := 0; i < l.batch; i++ {
			job, v := l.at(0, b, i)
			out = append(out, sampleRef{job, v})
		}
	}
	return out
}

func runBackfillNDJSON(c *runCtx) (*result, error) { return runBackfill(c, false) }
func runBackfillBinary(c *runCtx) (*result, error) { return runBackfill(c, true) }

func runBackfill(c *runCtx, binary bool) (*result, error) {
	if c.sz.backfillJobs%2 != 0 || c.sz.backfillBatch%(c.sz.backfillJobs/2) != 0 {
		return nil, fmt.Errorf("backfill sizes %d jobs, %d-sample batches do not split over two connections", c.sz.backfillJobs, c.sz.backfillBatch)
	}
	opts := servingOpts{jobs: c.sz.backfillJobs, http: true}
	e, setupS, err := repeatSetup(c.setups(), func() (loaded[*backfillLoad], error) {
		s, err := newServing(c, opts)
		if err != nil {
			return loaded[*backfillLoad]{}, err
		}
		return loaded[*backfillLoad]{s, newBackfillLoad(s, c, binary)}, nil
	})
	if err != nil {
		return nil, err
	}
	load := e.load
	defer func() { _ = e.close() }() // drainAndCheck reports the close error; this covers early returns
	res := &result{}

	var tally, refTally ingestTally
	var rtts []float64
	var slices []slice
	var a, b coreCounts
	ingested := func() float64 { return float64(e.core.SamplesIngested()) }
	ref, w := c.timed(func(d time.Duration, main bool) {
		if !main {
			t, _ := load.run(d, nil)
			refTally.add(t)
			return
		}
		a = e.counts()
		slices = sliced(backfillReading.every, ingested, func(sl *slicer) { tally, rtts = load.run(d, sl) })
		b = e.counts()
	})
	res.note("steal_s=%.3f", w.stealS)

	all := tally
	all.add(refTally)
	checkIngest(res, all)
	e.checkEvents(res, a, b)
	checkAccuracy(res, c, e.mdl.res.Accuracy)
	bareS, bareN := e.drainAndCheck(res, load.streams())

	samples := float64(tally.accepted)
	if !c.traced {
		res.metrics = endToEndMetrics(backfillReading, setupS, slices, samples, w, e.heapPerJob, e.mdl.res.Accuracy)
		return res, nil
	}
	m := newLayerMetrics()
	stageMetrics(m, e.mdl.stages)
	runtimeMetrics(m, w)
	e.spanMetrics(m, c.rec, w, a, b)
	httpMetrics(m, c.rec, tally, samples, rtts)
	m["fleet.ingest_ns_per_sample"] = ratio(bareS*1e9, float64(bareN))
	m["shard.self_ns_per_sample"] = m["shard.ingest_ns_per_sample"] - m["fleet.ingest_ns_per_sample"]
	m["tracing.overhead_share"] = throughputLoss(ref, float64(refTally.accepted), w, samples)
	if err := e.replayLayers(m, load.capture(), false); err != nil {
		return nil, err
	}
	res.metrics = m
	return res, nil
}
