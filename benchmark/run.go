package main

import (
	"runtime/debug"
	"time"
)

// runCtx is one invocation's arguments.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	rec     *recorder // non-nil on a traced run
}

// setups is how many times a run sets up: several when setup_s is being
// reported, once on a traced run, which does not report it.
func (c *runCtx) setups() int {
	if c.traced {
		return 1
	}
	return c.sz.setups
}

// repeatSetup sets up n times, keeps the last and returns the set-up time
// to report: the processor time (user+sys seconds, all threads) a set-up
// used. setup_s exists so that work a later change moves into set-up shows,
// and processor time is that work; on this host it also holds a bound where
// wall time cannot (between a quiet and a disturbed ten minutes the quickest
// of three set-ups moved +60 % in wall time and +28 % in processor time).
// It comes from several set-ups in one run because a single one is too noisy,
// and it is the fast quartile of them (of three, the cheapest), since
// interference only ever adds.
func repeatSetup[T interface{ close() error }](n int, setup func() (T, error)) (T, float64, error) {
	var last, zero T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := last.close(); err != nil {
				return zero, 0, err
			}
			last = zero // or the collection below would have to keep it
		}
		// Every set-up starts from the heap a fresh process has: the previous
		// plane is collected and its pages returned, so the Nth set-up neither
		// inherits a large heap goal nor finds its pages already faulted in.
		debug.FreeOSMemory()
		before := readCounters()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, readCounters().cpu-before.cpu)
		last = v
	}
	return last, fast(times, 0.25, true), nil
}

// tracedSplit is how a traced run divides its seconds between the untraced
// reference and the traced window. Their difference on the workload's main
// metric is the tracing overhead.
func tracedSplit(seconds float64) (reference, traced time.Duration) {
	ref := time.Duration(seconds / 3 * float64(time.Second))
	return ref, time.Duration(seconds*float64(time.Second)) - ref
}

// timed runs the workload's window through stretch. An untraced run calls
// it once for the whole of -seconds. A traced run calls it three times:
// half of an untraced reference stretch, the traced window with the span
// recorder on, then the other half of the reference, so that warm-up drift
// across the run cancels out of their difference instead of reading as
// tracing overhead. main marks the stretch whose numbers are reported; ref
// sums the reference halves and is zero on an untraced run.
func (c *runCtx) timed(stretch func(d time.Duration, main bool)) (ref, w window) {
	d := time.Duration(c.seconds * float64(time.Second))
	if !c.traced {
		return ref, measure(func() { stretch(d, true) })
	}
	refD, d := tracedSplit(c.seconds)
	ref = measure(func() { stretch(refD/2, false) })
	c.rec.on.Store(true)
	w = measure(func() { stretch(d, true) })
	c.rec.on.Store(false)
	ref.add(measure(func() { stretch(refD/2, false) }))
	return ref, w
}

// endToEndMetrics assembles the seven end-to-end metrics from one untraced
// window. An item is the workload's unit of work and the slices' latency
// its headline latency (catalog.go says which). Throughput, CPU per item
// and latency are read from the quiet end of the slices, as rd says;
// allocation does not depend on the neighbours and is the whole window's,
// over items.
func endToEndMetrics(rd reading, setupS float64, slices []slice, items float64, w window, heapPerJob, accuracy float64) map[string]float64 {
	var thr, cpu, lat []float64
	for _, sl := range slices {
		if sl.items > 0 {
			thr = append(thr, sl.items/sl.wall)
			cpu = append(cpu, sl.cpu*1e6/sl.items)
		}
		lat = append(lat, sl.latP50)
	}
	throughput := fast(thr, rd.share, false)
	if rd.openLoop {
		throughput = ratio(items, w.wall)
	}
	return map[string]float64{
		"setup_s":              setupS,
		"latency_p50_ms":       fast(lat, rd.share, true),
		"throughput_per_s":     throughput,
		"cpu_us_per_item":      fast(cpu, rd.share, true),
		"alloc_bytes_per_item": ratio(w.allocBytes, items),
		"heap_bytes_per_job":   heapPerJob,
		"accuracy_pct":         accuracy * 100,
	}
}

// checkAccuracy holds the fidelity anchor: at the committed sizes the
// model every workload serves (modelSeed's) must classify the held-out
// split to within half a point of the value recorded for it.
func checkAccuracy(res *result, c *runCtx, accuracy float64) {
	if !c.sz.full {
		return
	}
	if pct := accuracy * 100; pct < seedOneAccuracy-0.5 || pct > seedOneAccuracy+0.5 {
		res.fail("test accuracy %.2f%% is not within 0.5 points of the recorded %.2f%%", pct, seedOneAccuracy)
	}
}
