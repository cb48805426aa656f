package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/logtest"
	"repro/internal/servetest"
	"repro/internal/stream"
)

// newTestServer builds a monitor + serving layer with a very long tick
// cadence, so tests control inference timing via runTick and Close.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *fleet.Monitor, *httptest.Server) {
	t.Helper()
	scaler, model := servetest.Fixture(t)
	m, err := fleet.New(fleet.Config{Shards: 1, Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Monitor:    m,
		ClassNames: []string{"c0", "c1", "c2", "c3"},
		TickEvery:  time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, m, ts
}

func postNDJSON(t *testing.T, url, body string) (*http.Response, ingestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, ir
}

func sampleLine(job int, values []float64) string {
	b, _ := json.Marshal(struct {
		Job    int       `json:"job"`
		Values []float64 `json:"values"`
	}{job, values})
	return string(b)
}

// TestIngestErrorAccounting is the end-to-end error-path contract: a
// malformed NDJSON line and a wrong-width sample produce structured
// per-line errors without poisoning the batch's valid samples.
func TestIngestErrorAccounting(t *testing.T) {
	_, m, ts := newTestServer(t, nil)

	s1 := servetest.JobSamples(1, servetest.Window)
	s3 := servetest.JobSamples(3, 1)
	body := strings.Join([]string{
		sampleLine(1, s1[0]),
		`{not json`,
		sampleLine(2, []float64{1, 2}), // wrong width: rejected by the fleet
		`{"values":[1,2,3]}`,           // missing job
		"",                             // blank lines are skipped, not errors
		sampleLine(3, s3[0]),
	}, "\n")

	resp, ir := postNDJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ir.Accepted != 2 || ir.Rejected != 3 {
		t.Fatalf("accounting %+v, want accepted 2 / rejected 3", ir)
	}
	wantLines := []int{2, 3, 4}
	if len(ir.Errors) != len(wantLines) {
		t.Fatalf("errors %+v, want lines %v", ir.Errors, wantLines)
	}
	for i, le := range ir.Errors {
		if le.Line != wantLines[i] || le.Error == "" {
			t.Fatalf("error %d = %+v, want line %d with a message", i, le, wantLines[i])
		}
	}
	if n := m.SamplesIngested(); n != 2 {
		t.Fatalf("monitor ingested %d samples, want 2", n)
	}

	// The valid samples survived: finish job 1's window and classify.
	var rest []string
	for _, s := range s1[1:] {
		rest = append(rest, sampleLine(1, s))
	}
	resp, ir = postNDJSON(t, ts.URL, strings.Join(rest, "\n"))
	if resp.StatusCode != http.StatusOK || ir.Rejected != 0 || ir.Accepted != servetest.Window-1 {
		t.Fatalf("follow-up batch: status %d, accounting %+v", resp.StatusCode, ir)
	}
	if err := pingTick(m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Prediction(1); !ok {
		t.Fatal("job 1 should classify after its window filled")
	}
}

func pingTick(m *fleet.Monitor) error {
	_, err := m.Tick()
	return err
}

// TestIngestBackpressure fills the bounded queue while the single worker is
// held, and requires the next request to be refused with 429 + Retry-After
// rather than queued without bound. The queue is the server's, not a
// route's: a second IngestHandler mount fills it and is refused by it like
// the public route, and Close drains the batches of both into their own
// destinations.
func TestIngestBackpressure(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, m, ts := newTestServer(t, func(cfg *Config) {
		cfg.queueDepth = 1
		cfg.Workers = 1
		cfg.retryAfter = 3 * time.Second
		cfg.testHook = func() {
			entered <- struct{}{}
			<-release
		}
	})
	var relOnce sync.Once
	rel := func() { relOnce.Do(func() { close(release) }) }
	defer rel() // unblock workers even on a failing path, or Cleanup deadlocks

	var second atomic.Int64 // samples the second mount's destination received
	ts2 := httptest.NewServer(s.IngestHandler(func(b *fleet.Batch) []fleet.SampleError {
		second.Add(int64(len(b.Samples)))
		return nil
	}, nil))
	defer ts2.Close()

	line := sampleLine(1, servetest.JobSamples(1, 1)[0])
	results := make(chan int, 2)
	post := func(url string) {
		resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(line))
		if err != nil {
			t.Error(err)
			results <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp.StatusCode
	}

	go post(ts.URL + "/v1/ingest") // occupies the worker
	<-entered
	go post(ts2.URL) // occupies the queue's single slot, through the second mount
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second batch never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	for _, url := range []string{ts.URL + "/v1/ingest", ts2.URL} {
		resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d with a full queue, want 429", url, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "3" {
			t.Fatalf("%s: Retry-After %q, want %q", url, ra, "3")
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	rel()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("held request finished with %d, want 200", code)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if m.SamplesIngested() != 1 || second.Load() != 1 {
		t.Fatalf("drain delivered %d samples to the monitor and %d to the second mount, want 1 and 1",
			m.SamplesIngested(), second.Load())
	}
}

// TestCloseDuringIngest closes the server under concurrent ingest, as a
// crashed node's listener does to requests still in flight: every request is
// answered 200 or 503, and exactly the samples answered 200 were ingested.
func TestCloseDuringIngest(t *testing.T) {
	s, m, ts := newTestServer(t, nil)
	line := sampleLine(1, servetest.JobSamples(1, 1)[0])
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, ir := postNDJSON(t, ts.URL, line)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("status %d during the drain, want 200 or 503", resp.StatusCode)
				}
				accepted.Add(int64(ir.Accepted))
			}
		}()
	}
	for m.SamplesIngested() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := m.SamplesIngested(); got != uint64(accepted.Load()) {
		t.Fatalf("monitor ingested %d samples, responses accepted %d", got, accepted.Load())
	}
}

// TestReadEndpoints covers prediction reads, the fleet snapshot, job end,
// health and metrics over real HTTP.
func TestReadEndpoints(t *testing.T) {
	s, m, ts := newTestServer(t, nil)

	samples := servetest.JobSamples(4, servetest.Window)
	var lines []string
	for _, smp := range samples {
		lines = append(lines, sampleLine(4, smp))
	}
	if resp, ir := postNDJSON(t, ts.URL, strings.Join(lines, "\n")); resp.StatusCode != 200 || ir.Accepted != servetest.Window {
		t.Fatalf("ingest: %d / %+v", resp.StatusCode, ir)
	}
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	// Full prediction read, bit-identical through JSON.
	resp, err := http.Get(ts.URL + "/v1/jobs/4/prediction")
	if err != nil {
		t.Fatal(err)
	}
	var pr predictionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prediction status %d", resp.StatusCode)
	}
	want, _ := m.Prediction(4)
	got := &stream.Prediction{Class: pr.Class, Probability: pr.Probability, Probs: pr.Probs}
	if !servetest.SamePrediction(got, want) {
		t.Fatalf("HTTP prediction %+v differs from monitor %+v", pr, want)
	}
	if pr.Job != 4 || pr.ClassName != fmt.Sprintf("c%d", pr.Class) {
		t.Fatalf("prediction envelope %+v", pr)
	}

	// Unknown and malformed job IDs.
	for path, wantCode := range map[string]int{
		"/v1/jobs/99/prediction":  http.StatusNotFound,
		"/v1/jobs/abc/prediction": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
	}

	// Fleet snapshot.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Count != 1 || len(snap.Jobs) != 1 {
		t.Fatalf("snapshot %+v, want exactly job 4", snap)
	}
	row := snap.Jobs[0]
	if row.Job != 4 || !row.Ready || row.Samples != servetest.Window || row.Class == nil ||
		*row.Class != want.Class || row.Probability != want.Probability || row.LastSeenUnixMS == 0 {
		t.Fatalf("snapshot row %+v", row)
	}

	// Health: serving shape for load drivers.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.Status != "ok" || hr.Jobs != 1 || hr.Window != servetest.Window || hr.Sensors != servetest.Sensors {
		t.Fatalf("healthz %+v", hr)
	}

	// Metrics: the counters the dashboard scrapes.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"wcc_samples_ingested_total 6",
		"wcc_classifications_total 1",
		"wcc_jobs 1",
		"wcc_ingest_queue_capacity 256",
		`wcc_tick_latency_seconds{quantile="0.95"}`,
		"wcc_model_swaps_total 0",
		"wcc_jobs_evicted_total 0",
		"\nwcc_go_goroutines ",
		"\nwcc_go_heap_live_bytes ",
		"# TYPE wcc_go_gc_pause_cpu_seconds_total counter\nwcc_go_gc_pause_cpu_seconds_total ",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// End the job over HTTP: final classification comes back, slot is freed.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/4", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var er endJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !er.Ended || er.Class == nil || *er.Class != want.Class {
		t.Fatalf("end job: status %d, %+v", resp.StatusCode, er)
	}
	if m.NumJobs() != 0 {
		t.Fatal("registry should be empty after DELETE")
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", resp.StatusCode)
	}
}

// TestCloseFlushesPendingWindows pins graceful drain: samples whose windows
// filled after the last cadence tick are still classified by Close's final
// flush tick.
func TestCloseFlushesPendingWindows(t *testing.T) {
	s, m, ts := newTestServer(t, nil) // TickEvery is an hour: no cadence ticks
	var lines []string
	for _, smp := range servetest.JobSamples(9, servetest.Window) {
		lines = append(lines, sampleLine(9, smp))
	}
	if resp, ir := postNDJSON(t, ts.URL, strings.Join(lines, "\n")); resp.StatusCode != 200 || ir.Accepted != servetest.Window {
		t.Fatalf("ingest: %d / %+v", resp.StatusCode, ir)
	}
	if _, ok := m.Prediction(9); ok {
		t.Fatal("no tick ran; prediction should not exist yet")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Prediction(9); !ok {
		t.Fatal("drain must flush the pending window into a prediction")
	}

	// Ingest after drain is refused; reads keep working.
	resp, _ := postNDJSON(t, ts.URL, lines[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/9/prediction")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("read after Close: status %d, want 200", resp2.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// TestIngestBodyTooLarge pins the request-level failure mode: an oversized
// batch is rejected whole with 413 before anything is ingested.
func TestIngestBodyTooLarge(t *testing.T) {
	_, m, ts := newTestServer(t, func(cfg *Config) { cfg.maxBodyBytes = 64 })
	line := sampleLine(1, servetest.JobSamples(1, 1)[0])
	resp, _ := postNDJSON(t, ts.URL, strings.Repeat(line+"\n", 10))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if n := m.SamplesIngested(); n != 0 {
		t.Fatalf("oversized request ingested %d samples, want 0", n)
	}
}

// TestIdleEvictionLoop wires Config.EvictAfter end to end: an idle job
// disappears from the registry and the eviction is visible in /metrics.
func TestIdleEvictionLoop(t *testing.T) {
	_, m, ts := newTestServer(t, func(cfg *Config) {
		cfg.EvictAfter = 10 * time.Millisecond
		cfg.evictEvery = 2 * time.Millisecond
	})
	if resp, ir := postNDJSON(t, ts.URL, sampleLine(1, servetest.JobSamples(1, 1)[0])); resp.StatusCode != 200 || ir.Accepted != 1 {
		t.Fatalf("ingest: %d / %+v", resp.StatusCode, ir)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.NumJobs() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle job was never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions())
	}
}

// TestEvictAfterUnderFourNanosecondsIsRefused: EvictAfter/4 is the eviction
// interval, so 1-3ns would start a ticker with no interval (which panics);
// New refuses it, naming the field, and a negative value still disables
// eviction.
func TestEvictAfterUnderFourNanosecondsIsRefused(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := fleet.New(fleet.Config{Shards: 1, Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Monitor: m, TickEvery: time.Hour, EvictAfter: 3 * time.Nanosecond})
	if err == nil {
		s.Close()
		t.Fatal("New accepted EvictAfter 3ns")
	}
	if !strings.Contains(err.Error(), "EvictAfter") {
		t.Fatalf("error %q does not name EvictAfter", err)
	}
	s, err = New(Config{Monitor: m, TickEvery: time.Hour, EvictAfter: -time.Second})
	if err != nil {
		t.Fatalf("a negative EvictAfter should disable eviction: %v", err)
	}
	s.Close()
}

// failingTicks fails its next n TickShard calls, then ticks the core it
// wraps: a model that errors for a while and then recovers.
type failingTicks struct {
	Monitor
	n atomic.Int32
}

func (f *failingTicks) TickShard(i int) (fleet.TickStats, error) {
	if f.n.Add(-1) >= 0 {
		return fleet.TickStats{}, errors.New("classifier unavailable")
	}
	return f.Monitor.TickShard(i)
}

// TestTickLoopLogsErrorEdges pins the tick loop's log to the shard-health
// edge: a shard that fails its next ticks and then succeeds logs one error
// record when it starts failing and one info record when it recovers, not
// one record per failed tick.
func TestTickLoopLogsErrorEdges(t *testing.T) {
	const failures = 25
	logs := logtest.Capture(t)
	newTestServer(t, func(cfg *Config) {
		m := &failingTicks{Monitor: cfg.Monitor}
		m.n.Store(failures)
		cfg.Monitor = m
		cfg.TickEvery = time.Millisecond
	})
	logs.Wait(t, 1, `msg="tick loop recovered"`, "shard=0")
	failing := logs.Lines(`msg="tick loop failing"`)
	if len(failing) != 1 || !strings.Contains(failing[0], "level=ERROR") || !strings.Contains(failing[0], "shard=0") ||
		!strings.Contains(failing[0], `err="classifier unavailable"`) {
		t.Fatalf("%d failed ticks logged %q, want one error record with shard and err", failures, failing)
	}
	if got := logs.Lines("tick loop recovered"); len(got) != 1 || !strings.Contains(got[0], "level=INFO") {
		t.Fatalf("recovery logged %q, want one info record", got)
	}
}

// TestQuantileNearestRank: the tick-latency quantiles are nearest-rank, the
// ⌈q·n⌉-th smallest, as wccload's percentiles are. Rounding q·n instead
// reads one rank low whenever its fraction is below one half: 0.95 of a full
// 512-tick window is rank 486.4, so the 487th value.
func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int // index into the sorted slice
	}{
		{512, 0.95, 486},
		{20, 0.51, 10},
		{1, 0.5, 0},
		{1, 0.99, 0},
		{10, 0, 0},
		{10, 1, 9},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i)
		}
		if got := quantile(sorted, tc.q); got != sorted[tc.want] {
			t.Errorf("n=%d q=%v: index %d, want %d", tc.n, tc.q, int(got), tc.want)
		}
	}
}
