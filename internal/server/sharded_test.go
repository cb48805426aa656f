package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/shard"
)

// newShardedServer builds a shard.Core-backed serving layer. The tick
// cadence is real (per-shard loops run), short enough that predictions
// appear promptly.
func newShardedServer(t *testing.T, shards int) (*Server, *shard.Core, *httptest.Server) {
	t.Helper()
	scaler, model := fixture(t)
	core, err := shard.New(shard.Config{
		Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Monitor:    core,
		ClassNames: []string{"c0", "c1", "c2", "c3"},
		TickEvery:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, core, ts
}

// TestShardedServerMatchesInProcessFleet serves a 4-shard core over real
// loopback HTTP — concurrent NDJSON clients, per-shard tick loops on their
// own cadence — and checks every prediction read through the API is
// bit-identical to an in-process single fleet.Monitor fed the same
// streams.
func TestShardedServerMatchesInProcessFleet(t *testing.T) {
	const (
		jobs    = 48
		perJob  = testWindow*2 + 3
		clients = 4
	)
	s, core, ts := newShardedServer(t, 4)

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each client owns jobs ≡ w (mod clients): per-job sample order
			// rides one request stream.
			for j := w; j < jobs; j += clients {
				var lines []string
				for _, smp := range jobSamples(j, perJob) {
					lines = append(lines, sampleLine(j, smp))
				}
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
				if err != nil {
					t.Error(err)
					return
				}
				var ir ingestResponse
				if resp.StatusCode == http.StatusOK {
					json.NewDecoder(resp.Body).Decode(&ir)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || ir.Accepted != perJob || ir.Rejected != 0 {
					t.Errorf("job %d: status %d, accounting %+v", j, resp.StatusCode, ir)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Drain: queued batches land and a final whole-fleet tick flushes
	// every shard's pending windows.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := core.SamplesIngested(); got != uint64(jobs*perJob) {
		t.Fatalf("core ingested %d samples, want %d", got, jobs*perJob)
	}

	scaler, model := fixture(t)
	single, err := fleet.New(fleet.Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		for _, smp := range jobSamples(j, perJob) {
			if err := single.Ingest(j, smp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := single.Tick(); err != nil {
		t.Fatal(err)
	}

	for j := 0; j < jobs; j++ {
		want, ok := single.Prediction(j)
		if !ok {
			t.Fatalf("job %d: baseline has no prediction", j)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/prediction", ts.URL, j))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: prediction status %d", j, resp.StatusCode)
		}
		var pr predictionResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if pr.Class != want.Class || pr.Probability != want.Probability {
			t.Fatalf("job %d: served (%d, %v) vs in-process (%d, %v)",
				j, pr.Class, pr.Probability, want.Class, want.Probability)
		}
		for c := range want.Probs {
			if pr.Probs[c] != want.Probs[c] {
				t.Fatalf("job %d class %d: served %v vs in-process %v (not bit-identical)",
					j, c, pr.Probs[c], want.Probs[c])
			}
		}
	}
}

// TestShardedMetricsAndHealth pins the sharded observability surface:
// /healthz reports the shard count, and /metrics carries one shard-labelled
// series per shard for the per-shard metrics, consistent with the
// fleet-wide sums — at one shard exactly as at several.
func TestShardedMetricsAndHealth(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, core, ts := newShardedServer(t, shards)

			var lines []string
			for j := 0; j < 16; j++ {
				for _, smp := range jobSamples(j, testWindow) {
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
