package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/shard"
	"repro/internal/stream"
)

// spanKind names one interposed interface call.
type spanKind uint8

const (
	kNone spanKind = iota
	kHTTPIngest
	kHTTPRead
	kHTTPSnapshot
	kHTTPOther
	kIngest
	kTick
	kPrediction
	kSnapshot
	kClassify
	kObserve
	kPublish
	numKinds
)

var kindNames = [numKinds]string{
	"", "server.handler.ingest", "server.handler.read", "server.handler.snapshot", "server.handler.other",
	"shard.Ingest", "shard.TickShard", "shard.Prediction", "shard.Snapshot",
	"forest.PredictProbaBatch", "adapt.ObserveWindow", "events.Publish",
}

// parentKind is the static call tree of the interposed interfaces: a child
// span's parent is the most recently begun, still-open span of this kind.
// With one partition that is exact. With two partitions ticking at once a
// classify span may be attributed to the other partition's tick; sums per
// kind, which every metric is built from, are unaffected.
var parentKind = [numKinds]spanKind{
	kIngest: kHTTPIngest, kPrediction: kHTTPRead, kSnapshot: kHTTPSnapshot,
	kClassify: kTick, kObserve: kTick, kPublish: kTick,
}

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch; ID 0 is "no span".
type span struct {
	ID, Parent int32
	Kind       spanKind
	Start, End int64
	Items      int32
}

// maxSpans caps recorder memory (about 40 bytes a span); past it calls are
// still made but no longer recorded, and the drop is reported.
const maxSpans = 4 << 20

// ingestSampleEvery thins shard.Ingest spans: that call happens once per
// sample, up to a million times a second on backfill, where two clock
// reads per call would double what is being measured.
const ingestSampleEvery = 32

// recorder keeps spans in memory. It records only while on is set, so the
// wrappers can stay installed through set-up and the untraced reference
// stretch of a traced run.
type recorder struct {
	on      atomic.Bool
	ingestN atomic.Uint64

	mu      sync.Mutex
	epoch   time.Time
	spans   []span // spans[i].ID == i+1
	open    [numKinds]int32
	dropped int
}

func newRecorder() *recorder {
	// Room for a typical traced window up front, so the slice rarely grows
	// (and copies itself) under the lock mid-run.
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// openSpan is what begin hands its caller to give back to end.
type openSpan struct {
	id    int32
	start int64
}

// begin opens a span (id 0 when not recording). The start time is read
// after the bookkeeping and end reads the clock before its own, so the
// recorder's lock and append stay outside the measured interval.
func (r *recorder) begin(k spanKind) openSpan {
	if r == nil || !r.on.Load() {
		return openSpan{}
	}
	r.mu.Lock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		r.mu.Unlock()
		return openSpan{}
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: r.open[parentKind[k]], Kind: k})
	r.open[k] = id
	r.mu.Unlock()
	return openSpan{id: id, start: int64(time.Since(r.epoch))}
}

// end closes the span begin returned.
func (r *recorder) end(o openSpan, items int) {
	if o.id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	s := &r.spans[o.id-1]
	s.Start, s.End, s.Items = o.start, now, int32(items)
	if r.open[s.Kind] == o.id {
		r.open[s.Kind] = 0
	}
	r.mu.Unlock()
}

// kindTotal is one kind's aggregate over the traced window.
type kindTotal struct {
	count int
	items float64
	ns    float64
}

// totals sums closed spans by kind.
func (r *recorder) totals() [numKinds]kindTotal {
	var out [numKinds]kindTotal
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		s := &r.spans[i]
		if s.End == 0 {
			continue
		}
		t := &out[s.Kind]
		t.count++
		t.items += float64(s.Items)
		t.ns += float64(s.End - s.Start)
	}
	return out
}

// writeTo dumps every span as one JSON object per line.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		s := &r.spans[i]
		err = enc.Encode(struct {
			ID     int32  `json:"id"`
			Parent int32  `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Items  int32  `json:"items"`
		}{s.ID, s.Parent, kindNames[s.Kind], s.Start, s.End, s.Items})
		if err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// samplesHeader lets the load generator tell the handler wrapper how many
// samples a request carries, so handler spans have an item count without
// the wrapper parsing bodies.
const samplesHeader = "X-Bench-Samples"

// tracedHandler spans every request around the server's own handler.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k := kHTTPOther
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/ingest":
		k = kHTTPIngest
	case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs":
		k = kHTTPSnapshot
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/prediction"):
		k = kHTTPRead
	}
	sp := h.rec.begin(k)
	h.next.ServeHTTP(w, r)
	n, _ := strconv.Atoi(r.Header.Get(samplesHeader)) // absent on reads: 0 items
	h.rec.end(sp, n)
}

// tracedCore interposes on the server.Monitor and server.Sharded contract
// the serving layer drives a shard.Core through. Everything not overridden
// is the Core's own method.
type tracedCore struct {
	*shard.Core
	rec *recorder
}

func (c *tracedCore) Ingest(jobID int, sample []float64) error {
	if c.rec.on.Load() && c.rec.ingestN.Add(1)%ingestSampleEvery == 0 {
		sp := c.rec.begin(kIngest)
		err := c.Core.Ingest(jobID, sample)
		c.rec.end(sp, 1)
		return err
	}
	return c.Core.Ingest(jobID, sample)
}

func (c *tracedCore) Tick() (fleet.TickStats, error) {
	sp := c.rec.begin(kTick)
	st, err := c.Core.Tick()
	c.rec.end(sp, st.Classified)
	return st, err
}

func (c *tracedCore) TickShard(i int) (fleet.TickStats, error) {
	sp := c.rec.begin(kTick)
	st, err := c.Core.TickShard(i)
	c.rec.end(sp, st.Classified)
	return st, err
}

func (c *tracedCore) Prediction(jobID int) (*stream.Prediction, bool) {
	sp := c.rec.begin(kPrediction)
	p, ok := c.Core.Prediction(jobID)
	c.rec.end(sp, 1)
	return p, ok
}

func (c *tracedCore) Snapshot() []fleet.JobInfo {
	sp := c.rec.begin(kSnapshot)
	out := c.Core.Snapshot()
	c.rec.end(sp, len(out))
	return out
}

func (c *tracedCore) SetEventSink(s events.Sink) {
	if s != nil {
		s = tracedSink{next: s, rec: c.rec}
	}
	c.Core.SetEventSink(s)
}

// tracedSink spans every event the fleet publishes at write-back.
type tracedSink struct {
	next events.Sink
	rec  *recorder
}

func (s tracedSink) Publish(e events.Event) {
	sp := s.rec.begin(kPublish)
	s.next.Publish(e)
	s.rec.end(sp, 1)
}

// tracedClassifier spans the model call. It offers both the single-matrix
// and the batched entry point, so the fleet keeps choosing the batched one.
type tracedClassifier struct {
	single stream.Classifier
	batch  fleet.BatchClassifier
	rec    *recorder
}

func (t *tracedClassifier) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	sp := t.rec.begin(kClassify)
	out, err := t.single.PredictProba(x)
	t.rec.end(sp, x.Rows)
	return out, err
}

func (t *tracedClassifier) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) {
	sp := t.rec.begin(kClassify)
	out, err := t.batch.PredictProbaBatch(x)
	t.rec.end(sp, x.Rows)
	return out, err
}

// tracedObserver spans the adapt manager's per-row observation.
type tracedObserver struct {
	next fleet.Observer
	rec  *recorder
}

func (t tracedObserver) ObserveWindow(o fleet.Observation) {
	sp := t.rec.begin(kObserve)
	t.next.ObserveWindow(o)
	t.rec.end(sp, 1)
}
