// Package trace records per-stage serving latency: a lightweight span
// recorder threaded through the serving pipeline — HTTP parse → queue wait
// → ingest → window collection → batched classification → prediction
// write-back — feeding fixed-bucket latency histograms (rendered as
// Prometheus _bucket/_sum/_count series by the serving layer) and a small
// ring of recent spans for the sampled-trace endpoint.
//
// The recorder is built for the hot path: one mutex-guarded fixed-size
// table, no allocation per observation, and a nil *Recorder is a valid
// no-op — callers thread it unconditionally and tracing costs nothing when
// disabled. Timing never influences results; the equivalence tests pin
// that a traced fleet's predictions are bit-identical to an untraced one.
package trace

import (
	"sync"
	"time"
)

// Stage names one pipeline stage a span can cover.
type Stage uint8

const (
	// StageParse is the HTTP handler decoding an ingest body into samples
	// (either framing).
	StageParse Stage = iota
	// StageQueue is a parsed batch's wait on the bounded ingest queue,
	// from enqueue to worker pickup.
	StageQueue
	// StageIngest is a worker pushing one batch's samples into the fleet's
	// per-job windows.
	StageIngest
	// StageCollect is a tick gathering dirty, full windows into the batch
	// feature matrix.
	StageCollect
	// StageClassify is the tick's batched model call.
	StageClassify
	// StageWriteBack is the tick scoring open-set verdicts for the batch and
	// publishing the predictions back to the registry.
	StageWriteBack
	// NumStages bounds the per-stage tables.
	NumStages
)

var stageNames = [NumStages]string{
	"parse", "queue", "ingest", "collect", "classify", "writeback",
}

// String returns the stage's metric-label name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// ParseStage maps a metric-label name back to its Stage.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Buckets is the histogram's upper-bound grid in seconds: 5µs to 2.5s in a
// 1–2.5–5 progression, wide enough for a multi-millisecond batched tick
// and fine enough to see a microsecond parse. The final implicit bucket is
// +Inf.
var Buckets = [...]float64{
	5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5,
}

// spanRing bounds the recent-span sample the trace endpoint serves.
const spanRing = 256

// Span is one recorded stage execution.
type Span struct {
	// Stage is the pipeline stage the span covers.
	Stage Stage
	// Start is when the stage began.
	Start time.Time
	// Dur is the stage's wall-clock duration.
	Dur time.Duration
	// Items is the batch size the stage processed (samples for the ingest
	// stages, windows for the tick stages).
	Items int
}

// hist is one stage's fixed-bucket latency histogram; counts[i] is the
// number of observations ≤ Buckets[i], inf those beyond the grid.
type hist struct {
	counts [len(Buckets)]uint64
	inf    uint64
	count  uint64
	sum    float64
}

// Recorder accumulates spans. All methods are safe for concurrent use and
// valid on a nil receiver (no-ops), so one recorder can be threaded
// through the HTTP layer, the ingest workers, and every monitor shard's
// tick loop unconditionally.
type Recorder struct {
	mu     sync.Mutex
	stages [NumStages]hist
	ring   [spanRing]Span
	ringN  uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe records one stage execution: its duration lands in the stage's
// histogram and the span joins the recent-span ring. items is the batch
// size the stage processed (0 when not meaningful).
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (r *Recorder) Observe(st Stage, start time.Time, d time.Duration, items int) {
	if r == nil || st >= NumStages {
		return
	}
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	r.mu.Lock()
	h := &r.stages[st]
	h.count++
	h.sum += secs
	placed := false
	for i, ub := range Buckets {
		if secs <= ub {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	r.ring[r.ringN%spanRing] = Span{Stage: st, Start: start, Dur: d, Items: items}
	r.ringN++
	r.mu.Unlock()
}

// StageStats is one stage's accumulated histogram in a Snapshot.
type StageStats struct {
	// Stage is the stage the row covers.
	Stage Stage
	// Count and Sum are the histogram's total observations and their summed
	// seconds.
	Count uint64
	Sum   float64
	// Cumulative[i] counts observations ≤ Buckets[i] — already cumulative,
	// ready for Prometheus _bucket exposition; Count covers +Inf.
	Cumulative [len(Buckets)]uint64
}

// Quantile estimates the q-quantile in seconds from the histogram by
// linear interpolation inside the selected bucket. With no observations it
// returns 0; mass beyond the bucket grid reports the grid's upper edge.
func (s StageStats) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	lower := 0.0
	for i, ub := range Buckets {
		c := float64(s.Cumulative[i])
		if c >= rank {
			prev := 0.0
			if i > 0 {
				prev = float64(s.Cumulative[i-1])
			}
			width := ub - lower
			inBucket := c - prev
			if inBucket <= 0 {
				return ub
			}
			return lower + width*(rank-prev)/inBucket
		}
		lower = ub
	}
	return Buckets[len(Buckets)-1]
}

// Snapshot is a consistent point-in-time copy of the recorder: per-stage
// histograms plus the most recent spans, newest last.
type Snapshot struct {
	Stages [NumStages]StageStats
	Spans  []Span
}

// Snapshot copies the recorder's state. Safe concurrently with Observe; a
// nil recorder yields an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var out Snapshot
	for i := range out.Stages {
		out.Stages[i].Stage = Stage(i)
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for i := range r.stages {
		h := &r.stages[i]
		st := &out.Stages[i]
		st.Count = h.count
		st.Sum = h.sum
		var cum uint64
		for j := range h.counts {
			cum += h.counts[j]
			st.Cumulative[j] = cum
		}
	}
	n := r.ringN
	if n > spanRing {
		n = spanRing
	}
	out.Spans = make([]Span, 0, n)
	// Oldest first: the ring's next write slot is the oldest retained span.
	start := uint64(0)
	if r.ringN > spanRing {
		start = r.ringN
	}
	for i := uint64(0); i < n; i++ {
		out.Spans = append(out.Spans, r.ring[(start+i)%spanRing])
	}
	r.mu.Unlock()
	return out
}
