package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/servetest"
)

// TestShardedMetricsAndHealth pins the sharded observability surface:
// /healthz reports the shard count, and /metrics carries one shard-labelled
// series per shard for the per-shard metrics, consistent with the
// fleet-wide sums — at one shard exactly as at several.
func TestShardedMetricsAndHealth(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, core, ts := newTestServer(t, func(c *fleet.Config) { c.Shards = shards },
				func(c *Config) { c.TickEvery = time.Millisecond })

			var lines []string
			for j := 0; j < 16; j++ {
				for _, smp := range servetest.JobSamples(j, servetest.Window) {
					lines = append(lines, sampleLine(j, smp))
				}
			}
			if resp, ir := postNDJSON(t, ts.URL, strings.Join(lines, "\n")); resp.StatusCode != 200 || ir.Rejected != 0 {
				t.Fatalf("ingest: %d / %+v", resp.StatusCode, ir)
			}
			if err := s.Close(); err != nil { // drain so counters are settled
				t.Fatal(err)
			}

			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h HealthResponse
			if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if h.Shards != shards {
				t.Fatalf("healthz shards = %d, want %d", h.Shards, shards)
			}
			if h.Jobs != 16 {
				t.Fatalf("healthz jobs = %d, want 16", h.Jobs)
			}

			resp, err = http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			text := string(body)
			if !strings.Contains(text, fmt.Sprintf("wcc_shards %d", shards)) {
				t.Fatalf("/metrics lacks wcc_shards gauge:\n%s", text)
			}
			for _, name := range []string{
				"wcc_shard_jobs", "wcc_shard_samples_ingested_total",
				"wcc_shard_classifications_total", "wcc_shard_ticks_total",
				"wcc_shard_jobs_evicted_total",
			} {
				for i := 0; i < shards; i++ {
					series := fmt.Sprintf("%s{shard=\"%d\"}", name, i)
					if !strings.Contains(text, series) {
						t.Fatalf("/metrics lacks %s:\n%s", series, text)
					}
				}
			}

			// Shard-labelled samples must sum to the fleet-wide counter.
			var sum uint64
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, "wcc_shard_samples_ingested_total{") {
					var v uint64
					if _, err := fmt.Sscanf(line[strings.Index(line, "} ")+2:], "%d", &v); err != nil {
						t.Fatalf("unparsable series %q", line)
					}
					sum += v
				}
			}
			if sum != core.SamplesIngested() {
				t.Fatalf("shard-labelled samples sum to %d, fleet-wide counter is %d", sum, core.SamplesIngested())
			}
		})
	}
}
