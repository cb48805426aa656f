package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/clustertest"
)

// The replay the tests drive: 7 jobs of the scale-0.02 simulation, 6 s of
// telemetry each, against fleets of 7-sensor cores (what the simulator
// emits) with a window short enough that every job classifies.
const (
	testJobs   = 7
	testWindow = 6
)

func testConfig() config {
	return config{jobs: testJobs, scale: 0.02, seed: 1, start: 120, seconds: 6, batch: 16, conns: 2}
}

// bootFleet boots n in-process nodes sized for the simulator's seven sensors.
func bootFleet(t *testing.T, n int) *clustertest.Cluster {
	t.Helper()
	return clustertest.Start(t, clustertest.Options{Nodes: n, Window: testWindow, Sensors: 7})
}

// reported pulls the first integer captured by pattern out of a report.
func reported(t *testing.T, report, pattern string) int {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no %q in the report:\n%s", pattern, report)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ingested sums what the fleet's cores applied.
func ingested(c *clustertest.Cluster) (sum int) {
	for i := range c.URLs {
		sum += int(c.Member(i).Core.SamplesIngested())
	}
	return sum
}

// TestRunOneNodeBothFramings drives one node in each framing: run succeeds
// only if the server accepted every sample it sent, the core applied that
// many, and the snapshot it scores holds every fleet job.
func TestRunOneNodeBothFramings(t *testing.T) {
	sent := map[string]int{}
	for _, framing := range []string{"ndjson", "binary"} {
		t.Run(framing, func(t *testing.T) {
			c := bootFleet(t, 1)
			cfg := testConfig()
			cfg.addr, cfg.framing = c.URLs[0], framing
			var out bytes.Buffer
			if err := run(&out, cfg); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			sent[framing] = reported(t, out.String(), `sent (\d+) samples`)
			if got := ingested(c); got != sent[framing] || got == 0 {
				t.Errorf("core applied %d samples, report says %d sent", got, sent[framing])
			}
			if got := reported(t, out.String(), `fleet snapshot: +(\d+) jobs`); got != testJobs {
				t.Errorf("snapshot holds %d jobs, want %d", got, testJobs)
			}
			if got := reported(t, out.String(), `(\d+) line errors`); got != 0 {
				t.Errorf("%d line errors on a clean replay", got)
			}
			if !strings.Contains(out.String(), framing+" batches") {
				t.Errorf("the banner does not name the %s framing:\n%s", framing, out.String())
			}
		})
	}
	if sent["ndjson"] != sent["binary"] {
		t.Errorf("the framings replayed different loads: %v", sent)
	}
}

// TestRunClusterRoutesByOwner: with -cluster every batch goes to the node
// that owns its jobs, so a healthy fleet reroutes nothing, forwards nothing
// server-side, and the union of the nodes' snapshots is the whole fleet.
func TestRunClusterRoutesByOwner(t *testing.T) {
	c := bootFleet(t, 3)
	cfg := testConfig()
	cfg.cluster = strings.Join(c.URLs, ", ")
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if got := reported(t, out.String(), `(\d+) rerouted`); got != 0 {
		t.Errorf("%d batches rerouted on a healthy fleet", got)
	}
	if got, sent := ingested(c), reported(t, out.String(), `sent (\d+) samples`); got != sent {
		t.Errorf("cores applied %d samples, report says %d sent", got, sent)
	}
	if got := reported(t, out.String(), `fleet snapshot: +(\d+) jobs`); got != testJobs {
		t.Errorf("snapshot union holds %d jobs, want %d", got, testJobs)
	}
	for i := range c.URLs {
		if forwarded, _, _ := c.Member(i).Cluster.ForwardStats(); forwarded != 0 {
			t.Errorf("node %d forwarded %d samples; client-side routing should leave none to forward", i, forwarded)
		}
	}
}

// TestRunClusterSurvivesADeadNode kills one node before the run: its batches
// reroute to the next node (counted), the run still succeeds, and the report
// says whose snapshot is missing instead of failing.
func TestRunClusterSurvivesADeadNode(t *testing.T) {
	c := bootFleet(t, 3)
	c.Kill(1)
	if !clustertest.Settle(3*time.Second, func() bool {
		return !c.Member(0).Cluster.Alive()[1] && !c.Member(2).Cluster.Alive()[1]
	}) {
		t.Fatal("the survivors never declared node 1 dead")
	}
	cfg := testConfig()
	cfg.jobs = 24 // enough that the dead node owns some
	cfg.cluster = strings.Join(c.URLs, ",")
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatalf("run with a dead node: %v\n%s", err, out.String())
	}
	if got := reported(t, out.String(), `(\d+) rerouted`); got == 0 {
		t.Errorf("nothing rerouted although node 1 is dead:\n%s", out.String())
	}
	if want := fmt.Sprintf("note: snapshot from %s failed", c.URLs[1]); !strings.Contains(out.String(), want) {
		t.Errorf("the report does not say %q:\n%s", want, out.String())
	}
	if got, sent := ingested(c), reported(t, out.String(), `sent (\d+) samples`); got != sent {
		t.Errorf("survivors applied %d of the %d samples sent", got, sent)
	}
}

// TestRunRefusesUnknownFraming: a misspelt -framing is refused before
// anything is asked of the server.
func TestRunRefusesUnknownFraming(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
	defer srv.Close()
	cfg := testConfig()
	cfg.addr, cfg.framing = srv.URL, "protobuf"
	err := run(&bytes.Buffer{}, cfg)
	if err == nil || !strings.Contains(err.Error(), `unknown -framing "protobuf"`) {
		t.Fatalf("run = %v, want the framing refused", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d requests reached the server before the refusal", n)
	}
}

// TestSendAllWaitsOutAThrottle drives sendAll against a stub that answers
// the first post 429 with Retry-After: 1 and the second 200: sendAll must
// wait the advertised second, resend the same bytes, and count one throttle,
// one request and the accepted samples once.
func TestSendAllWaitsOutAThrottle(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	var at []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		got, at = append(got, body), append(at, time.Now())
		first := len(got) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"accepted":3,"rejected":0}`)
	}))
	defer srv.Close()

	body := []byte("{\"job\":1,\"values\":[1]}\n{\"job\":2,\"values\":[2]}\n{\"job\":3,\"values\":[3]}\n")
	var st connStats
	sendAll(srv.Client(), []string{srv.URL}, "application/x-ndjson", []reqBody{{data: body}}, &st)

	if st.firstErr != "" {
		t.Fatalf("sendAll failed: %s", st.firstErr)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("the stub saw %d posts, want 2", len(got))
	}
	for i, b := range got {
		if !bytes.Equal(b, body) {
			t.Errorf("post %d carried %q, want the batch %q", i, b, body)
		}
	}
	if wait := at[1].Sub(at[0]); wait < 900*time.Millisecond || wait > 3*time.Second {
		t.Errorf("resent after %v, want about the advertised 1s", wait)
	}
	if st.throttled != 1 || st.requests != 1 || st.accepted != 3 || st.rejected != 0 || st.rerouted != 0 {
		t.Errorf("counted %d throttled, %d requests, %d accepted, %d rejected, %d rerouted; want 1, 1, 3, 0, 0",
			st.throttled, st.requests, st.accepted, st.rejected, st.rerouted)
	}
}

// sseBody is a stub SSE response body: it serves frames, then either fails
// on its own with fail (a stream that breaks mid-run) or blocks, as a live
// subscription does, until Close. A read that meets the close fails with a
// plain error, as net/http's body does, not with net.ErrClosed.
type sseBody struct {
	frames *strings.Reader
	fail   error
	closed chan struct{}
	once   sync.Once
}

func (b *sseBody) Read(p []byte) (int, error) {
	if b.frames.Len() > 0 {
		return b.frames.Read(p)
	}
	if b.fail != nil {
		return 0, b.fail
	}
	<-b.closed
	return 0, errors.New("read on closed response body")
}

func (b *sseBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// roundTripFunc answers a client's requests without a network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestWatchEventsTellsTeardownFromFailure drives watchEvents over a stub
// transport. It counts the event frames per type and notes an eviction.
// The read error its own stop causes by closing the body is no stream
// failure, while one the stream hits before stop is reported. A refused
// subscription is an error, with its body closed.
func TestWatchEventsTellsTeardownFromFailure(t *testing.T) {
	const frames = "event: prediction\ndata: {}\n\nevent: unknown\ndata: {}\n\n" +
		"event: prediction\ndata: {}\n\nevent: eviction\ndata: {}\n\n"
	for _, tc := range []struct {
		name string
		fail error
	}{
		{"teardown", nil},
		{"mid-run failure", errors.New("connection reset by peer")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &sseBody{frames: strings.NewReader(frames), fail: tc.fail, closed: make(chan struct{})}
			client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if r.URL.Path != "/v1/events" {
					t.Errorf("subscribed at %s", r.URL.Path)
				}
				return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: body, Request: r}, nil
			})}
			w, err := watchEvents(client, "http://node")
			if err != nil {
				t.Fatal(err)
			}
			if tc.fail != nil {
				<-w.done // the stream fails before stop begins
			}
			counts, evicted, readErr := w.stop()
			if got := fmt.Sprint(counts); got != "[{prediction 2} {unknown 1}]" || !evicted {
				t.Errorf("counted %s, evicted %v; want [{prediction 2} {unknown 1}], true", got, evicted)
			}
			if !errors.Is(readErr, tc.fail) {
				t.Errorf("read error %v, want %v", readErr, tc.fail)
			}
		})
	}
	t.Run("refused", func(t *testing.T) {
		body := &sseBody{frames: strings.NewReader(""), closed: make(chan struct{})}
		client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{}, Body: body, Request: r}, nil
		})}
		if _, err := watchEvents(client, "http://node"); err == nil || !strings.Contains(err.Error(), "503") {
			t.Errorf("a 503 subscription gave %v, want an error naming the status", err)
		}
		select {
		case <-body.closed:
		default:
			t.Error("the refused subscription's body was left open")
		}
	})
}
