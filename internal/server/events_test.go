package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/servetest"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	event string
	id    string
	data  string
}

// readSSE parses frames off an event stream, sending each complete frame on
// the returned channel until the stream ends. A scanner read error is
// surfaced as a final "read-error" frame rather than a silent stop, so a
// test waiting on a frame that never arrives fails on the error, not the
// deadline. (Tests that close the response body to end a subscription see
// that close as a read-error frame after the frames they asserted on.)
func readSSE(r io.Reader) <-chan sseFrame {
	ch := make(chan sseFrame, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(r)
		var f sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if f.event != "" || f.data != "" {
					ch <- f
				}
				f = sseFrame{}
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			}
		}
		if err := sc.Err(); err != nil {
			ch <- sseFrame{event: "read-error", data: err.Error()}
		}
	}()
	return ch
}

// nextFrame receives one frame or fails the test after a timeout.
func nextFrame(t *testing.T, ch <-chan sseFrame) sseFrame {
	t.Helper()
	select {
	case f, ok := <-ch:
		if !ok {
			t.Fatal("event stream closed early")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an SSE frame")
	}
	panic("unreachable")
}

// TestEventsSSEStream drives the push plane end to end over HTTP: ingest
// classifies a job (prediction event), a hot-swap follows (swap event), and
// the stream delivers both with SSE framing — event name, id = bus
// sequence, JSON payload carrying the generation.
func TestEventsSSEStream(t *testing.T) {
	s, m, ts := newTestServer(t, nil, nil)

	resp, err := http.Get(ts.URL + "/v1/events?type=prediction,swap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := readSSE(resp.Body)

	var lines []string
	for _, sample := range servetest.JobSamples(1, servetest.Window) {
		b, _ := json.Marshal(map[string]any{"job": 1, "values": sample})
		lines = append(lines, string(b))
	}
	postNDJSON(t, ts.URL, strings.Join(lines, "\n"))
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	f := nextFrame(t, frames)
	if f.event != "prediction" || f.id == "" {
		t.Fatalf("first frame = %+v, want a prediction with an id", f)
	}
	var pred events.Event
	if err := json.Unmarshal([]byte(f.data), &pred); err != nil {
		t.Fatalf("prediction payload: %v", err)
	}
	if pred.Job == nil || *pred.Job != 1 || pred.Gen != 0 {
		t.Fatalf("prediction payload = %+v", pred)
	}

	_, model2 := servetest.Fixture(t)
	if err := m.SwapClassifierDrift(model2, nil); err != nil {
		t.Fatal(err)
	}
	f = nextFrame(t, frames)
	if f.event != "swap" {
		t.Fatalf("frame after swap = %+v", f)
	}
	var swap events.Event
	if err := json.Unmarshal([]byte(f.data), &swap); err != nil {
		t.Fatal(err)
	}
	if swap.Gen != 1 || swap.Model == "" {
		t.Fatalf("swap payload = %+v", swap)
	}
}

// TestEventsSSEFilters pins the query validation and the job filter.
func TestEventsSSEFilters(t *testing.T) {
	s, _, ts := newTestServer(t, nil, nil)

	for _, bad := range []string{"?type=bogus", "?job=notanumber", "?job=-3"} {
		resp, err := http.Get(ts.URL + "/v1/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/events%s = %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/events?job=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(resp.Body)
	// Give the handler a moment to subscribe before publishing.
	waitSubscribers(t, s, 1)
	s.bus.Publish(events.Event{Type: events.TypePrediction, Job: events.Intp(8), Class: events.Intp(0)})
	s.bus.Publish(events.Event{Type: events.TypePrediction, Job: events.Intp(7), Class: events.Intp(1)})
	s.bus.Publish(events.Event{Type: events.TypeSwap, Model: "m"})

	f := nextFrame(t, frames)
	var e events.Event
	if err := json.Unmarshal([]byte(f.data), &e); err != nil {
		t.Fatal(err)
	}
	if f.event != "prediction" || e.Job == nil || *e.Job != 7 {
		t.Fatalf("job-filtered stream delivered %+v", f)
	}
	// Fleet-scoped events still flow through a job filter.
	if f = nextFrame(t, frames); f.event != "swap" {
		t.Fatalf("job-filtered stream missed the swap, got %+v", f)
	}
}

// waitSubscribers blocks until the bus reports n live subscribers.
func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.bus.Stats().Subscribers != n {
		if time.Now().After(deadline) {
			t.Fatalf("bus never reached %d subscribers (have %d)", n, s.bus.Stats().Subscribers)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEventsSlowClientEvicted is the serving-side half of the slow-client
// policy, meaningful under -race: a subscriber that never reads is evicted
// when its bounded queue overflows, the publisher (the tick write-back
// path) never blocks, and the handler goroutine does not leak once the
// connection dies.
func TestEventsSlowClientEvicted(t *testing.T) {
	s, _, ts := newTestServer(t, nil, func(c *Config) { c.eventBuffer = 2 })
	before := runtime.NumGoroutine()

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, s, 1)

	// Never read resp.Body: the handler stalls once the kernel socket
	// buffers fill, the subscription queue (capacity 2) overflows, and the
	// bus must evict. Publishing must stay non-blocking throughout — this
	// is the tick write-back path's guarantee.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200000 && s.bus.Stats().Evicted == 0; i++ {
			s.bus.Publish(events.Event{Type: events.TypePrediction, Job: events.Intp(i), Class: events.Intp(0)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a stalled SSE subscriber")
	}
	st := s.bus.Stats()
	if st.Evicted != 1 || st.Subscribers != 0 {
		t.Fatalf("after stall: %+v, want 1 eviction and 0 subscribers", st)
	}

	// Killing the dead connection must free the handler goroutine.
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines: %d before stream, %d after close", before, g)
	}
}

// TestCloseStreamsEndsSSE pins the graceful-drain contract: CloseStreams
// ends every open event stream, so http.Server.Shutdown is never held open
// by a long-lived subscriber.
func TestCloseStreamsEndsSSE(t *testing.T) {
	s, _, ts := newTestServer(t, nil, nil)
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitSubscribers(t, s, 1)
	s.CloseStreams()
	ended := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body)
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open after CloseStreams")
	}
}

// TestTraceEndpoint drives samples through the HTTP ingest path and a tick,
// then checks /v1/trace reports every pipeline stage that ran, with spans.
func TestTraceEndpoint(t *testing.T) {
	s, _, ts := newTestServer(t, nil, nil)
	var lines []string
	for _, sample := range servetest.JobSamples(3, servetest.Window) {
		b, _ := json.Marshal(map[string]any{"job": 3, "values": sample})
		lines = append(lines, string(b))
	}
	postNDJSON(t, ts.URL, strings.Join(lines, "\n"))
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"parse": true, "queue": true, "ingest": true, "collect": true, "classify": true, "writeback": true}
	got := map[string]uint64{}
	for _, st := range tr.Stages {
		got[st.Stage] = st.Count
	}
	for stage := range want {
		if got[stage] == 0 {
			t.Fatalf("stage %q recorded no observations: %+v", stage, got)
		}
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace endpoint returned no spans")
	}
	for _, sp := range tr.Spans {
		if !want[sp.Stage] || sp.StartUnixMS == 0 {
			t.Fatalf("malformed span %+v", sp)
		}
	}
}

// TestDashboardServed pins the embedded dashboard: the root path serves the
// single-file UI, and only the root path does.
func TestDashboardServed(t *testing.T) {
	_, _, ts := newTestServer(t, nil, nil)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"Workload classification fleet", "/v1/events", "/v1/trace"} {
		if !strings.Contains(string(body), needle) {
			t.Fatalf("dashboard page missing %q", needle)
		}
	}
	// The {$} pattern keeps other unmatched paths 404, not dashboard copies.
	other, err := http.Get(ts.URL + "/not-a-route")
	if err != nil {
		t.Fatal(err)
	}
	other.Body.Close()
	if other.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /not-a-route = %d, want 404", other.StatusCode)
	}
}

// TestMetricsStageHistogramAndEventCounters pins the new /metrics series:
// proper histogram exposition for the stage recorder and the event-bus
// counters.
func TestMetricsStageHistogramAndEventCounters(t *testing.T) {
	s, _, ts := newTestServer(t, nil, nil)
	var lines []string
	for _, sample := range servetest.JobSamples(4, servetest.Window) {
		b, _ := json.Marshal(map[string]any{"job": 4, "values": sample})
		lines = append(lines, string(b))
	}
	postNDJSON(t, ts.URL, strings.Join(lines, "\n"))
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, needle := range []string{
		`wcc_stage_latency_seconds_bucket{stage="classify",le="+Inf"}`,
		`wcc_stage_latency_seconds_sum{stage="parse"}`,
		`wcc_stage_latency_seconds_count{stage="ingest"}`,
		"wcc_events_published_total",
		"wcc_events_dropped_total",
		"wcc_event_subscribers",
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("/metrics missing %q", needle)
		}
	}
}
