package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
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
		if forwarded, _, _, _ := c.Member(i).Cluster.ForwardStats(); forwarded != 0 {
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
