package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// window is the process-level cost of one timed stretch: what the
// workload-independent end-to-end and runtime metrics are computed from.
type window struct {
	wall       float64 // seconds
	cpu        float64 // user+sys seconds (getrusage)
	gcCPU      float64 // seconds of CPU the collector used
	allocBytes float64 // heap bytes allocated
	allocObjs  float64 // heap objects allocated
	heapPeakMB float64 // highest live+unswept heap seen by the sampler
	stealS     float64 // hypervisor steal over the stretch, -1 when unreadable
}

const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
)

// counters reads the cumulative process counters a window differences.
// runtime/metrics is used instead of ReadMemStats because it does not stop
// the world inside or at the edge of a timed window.
type counters struct {
	at                    time.Time
	cpu, gcCPU            float64
	allocBytes, allocObjs float64
	steal                 float64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return counters{
		at:         time.Now(),
		cpu:        tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gcCPU:      s[2].Value.Float64(),
		allocBytes: float64(s[0].Value.Uint64()),
		allocObjs:  float64(s[1].Value.Uint64()),
		steal:      stealSeconds(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// stealSeconds reads the machine-wide steal time from /proc/stat, or -1.
// It tells a reader whether a noisy run was the hypervisor's doing.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ is 100 on every Linux Go supports
}

// measure runs f and returns what the process spent on it. A sampler
// goroutine tracks the heap peak every 50ms without stopping the world.
func measure(f func()) window {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: mHeapBytes}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	a := readCounters()
	f()
	b := readCounters()
	close(stop)
	wg.Wait()
	w := window{
		wall:       b.at.Sub(a.at).Seconds(),
		cpu:        b.cpu - a.cpu,
		gcCPU:      b.gcCPU - a.gcCPU,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		heapPeakMB: float64(peak) / (1 << 20),
		stealS:     -1,
	}
	if a.steal >= 0 && b.steal >= 0 {
		w.stealS = b.steal - a.steal
	}
	return w
}

// add folds another stretch into w; only the summable fields are kept.
func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.gcCPU += o.gcCPU
	w.allocBytes += o.allocBytes
	w.allocObjs += o.allocObjs
}

// slice is one cut of a timed window: what it cost and what it got done.
type slice struct {
	wall, cpu, items float64
	latP50           float64 // median of the latencies observed in the slice; NaN when none were
}

// reading says how a workload's window is cut into slices and which slice
// its time-based end-to-end metrics are read from.
//
// The host these runs share has two speeds. With the neighbours quiet a
// fixed register-only loop takes 2.95 ms; with them busy (the sibling
// hyperthread, going by the size of the step) it takes 3.85 ms, and the
// host flips between the two every 10 ms to 5 s, for minutes at a time
// mostly slow. Interference only ever slows a slice down, so the metrics
// are read share of the way in from the favourable end of the slices, and
// the slices are short enough that some fit inside a quiet stretch. Over
// ten 8 s runs in a disturbed ten minutes the whole-window mean of tick-full
// throughput spread 29 %, the median slice 16 %, the fastest twentieth 4 %.
type reading struct {
	every time.Duration // slice length; a closed loop cuts at the first iteration boundary past it
	share float64       // how far in from the favourable end of the slices the reported value sits
	// openLoop marks a generator that sends on a schedule: its throughput is
	// the offered rate, so the whole window's is reported. (A fast slice of an
	// open loop is the server catching up after a stall, not a quiet host.)
	openLoop bool
}

var (
	// tickReading: an in-process iteration is one goroutine's work, and the
	// fastest twentieth of 5-10 ms slices finds the quiet stretches.
	tickReading = reading{every: 5 * time.Millisecond, share: 0.05}
	// backfillReading: 20 ms holds some twenty requests per connection and
	// two ticks. Interleaved with single-connection runs in one disturbed
	// period, two connections spread 7 % at the fastest twentieth (20 % whole
	// window); one connection spread 20 % (73 %), each stall idling the lot.
	backfillReading = reading{every: 20 * time.Millisecond, share: 0.05}
	// steadyReading: 100 ms holds a dozen freshness probes, enough for the
	// slice's median to mean something; the fast quartile of those.
	steadyReading = reading{every: 100 * time.Millisecond, share: 0.25, openLoop: true}
)

// slicer cuts a window into slices. Closed in-process loops cut it
// themselves at an iteration boundary (when due); for the HTTP workloads,
// whose work is spread over goroutines, sample cuts on a timer.
type slicer struct {
	every time.Duration

	mu     sync.Mutex
	at     time.Time // the open slice's start
	cpu    float64   // process CPU seconds at at
	items  float64   // cumulative items at at
	lat    []float64
	slices []slice
}

func newSlicer(every time.Duration) *slicer {
	return &slicer{every: every, at: time.Now(), cpu: cpuSeconds()}
}

// cpuSeconds is the process's user+sys time. A cut reads only this and the
// clock: readCounters, with its /proc/stat read, costs more than a
// tick-sparse iteration.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// observe records one headline-latency sample in the open slice. A nil
// slicer (a stretch whose slices nobody reads) drops it.
func (s *slicer) observe(latencyMS float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.lat = append(s.lat, latencyMS)
	s.mu.Unlock()
}

// due reports whether the open slice has run its length.
func (s *slicer) due() bool { return time.Since(s.at) >= s.every }

// cut closes the open slice; items is the cumulative work done so far.
func (s *slicer) cut(items float64) {
	now, cpu := time.Now(), cpuSeconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	p50 := math.NaN()
	if len(s.lat) > 0 {
		p50 = quantile(s.lat, 0.50)
	}
	s.slices = append(s.slices, slice{
		wall: now.Sub(s.at).Seconds(), cpu: cpu - s.cpu,
		items: items - s.items, latP50: p50,
	})
	s.at, s.cpu, s.items, s.lat = now, cpu, items, s.lat[:0]
}

// sample cuts a slice every s.every until stop closes, reading the
// cumulative item count from items. Run it on its own goroutine.
func (s *slicer) sample(stop <-chan struct{}, items func() float64) {
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.cut(items())
		}
	}
}

// sliced runs body while a sampler goroutine cuts the window into slices
// of length every, and returns them. items reads the cumulative item count.
func sliced(every time.Duration, items func() float64, body func(sl *slicer)) []slice {
	sl := newSlicer(every)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sl.sample(stop, items)
	}()
	body(sl)
	close(stop)
	<-done
	return sl.finish(items())
}

// finish closes the window: a tail shorter than a slice is dropped, unless
// it is all there is.
func (s *slicer) finish(items float64) []slice {
	if len(s.slices) == 0 || s.due() {
		s.cut(items)
	}
	return s.slices
}

// fast returns the value share of the way in from the favourable end of
// xs: the lower end when lower is better, the upper when higher is. NaNs
// (slices with nothing to measure) are skipped.
func fast(xs []float64, share float64, lowerIsBetter bool) float64 {
	var kept []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			kept = append(kept, x)
		}
	}
	if lowerIsBetter {
		return quantile(kept, share)
	}
	return quantile(kept, 1-share)
}

// liveHeap collects garbage and returns the bytes still reachable: the
// resident-memory reading bytes-per-job is differenced from.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0: a layer the workload never entered.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
