package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/servetest"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestServerMatchesInProcessFleet is the serving-layer acceptance
// invariant: replaying the same simulated telemetry through the HTTP API
// (batched NDJSON over real loopback connections, several concurrent
// clients, the server ticking on its own cadence) and through an in-process
// fleet.Monitor must end in bit-identical predictions for every job.
func TestServerMatchesInProcessFleet(t *testing.T) {
	const (
		window  = 24
		sensors = int(telemetry.NumGPUSensors)
		conns   = 3
		batchSz = 32
	)
	scaler, model := servetest.Wide(t, window, sensors)

	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 5, Scale: 0.02, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	windowSec := float64(window) * telemetry.GPUSampleDT
	const start = 30.0
	horizon := start + windowSec + 10
	var sources []*telemetry.Job
	for _, j := range sim.Jobs() {
		if j.Duration >= horizon+1 {
			sources = append(sources, j)
		}
	}
	if len(sources) < 4 {
		t.Fatalf("only %d usable simulated jobs", len(sources))
	}
	if len(sources) > 8 {
		sources = sources[:8]
	}
	// Fleet job k replays source k; source job IDs map back to k.
	fleetID := make(map[int]int, len(sources))
	for k, j := range sources {
		fleetID[j.ID] = k
	}

	// In-process baseline: same replay, direct Ingest, ticks interleaved
	// mid-stream to prove tick timing cannot change final predictions.
	inproc, err := fleet.New(fleet.Config{Window: window, Sensors: sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := telemetry.NewReplay(sources, 0, start, horizon)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		s, ok := replay.Next()
		if !ok {
			break
		}
		if err := inproc.Ingest(fleetID[s.JobID], s.Values); err != nil {
			t.Fatal(err)
		}
		if n++; n%97 == 0 {
			if _, err := inproc.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := inproc.Tick(); err != nil {
		t.Fatal(err)
	}

	// Served fleet: the same replay partitioned across conns concurrent
	// HTTP clients (a job's samples always ride the same connection, so
	// per-job order is preserved), while the server ticks every 2ms.
	srv, served, ts := newTestServer(t, func(fc *fleet.Config) {
		fc.Window, fc.Sensors, fc.Scaler, fc.Model = window, sensors, scaler, model
	}, func(c *Config) {
		c.ClassNames = nil
		c.TickEvery, c.queueDepth, c.Workers = 2*time.Millisecond, 64, 4
	})

	bodies := make([][][]byte, conns)
	cur := make([][]string, conns)
	flush := func(w int) {
		if len(cur[w]) == 0 {
			return
		}
		var buf bytes.Buffer
		for _, line := range cur[w] {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
		bodies[w] = append(bodies[w], buf.Bytes())
		cur[w] = cur[w][:0]
	}
	replay2, err := telemetry.NewReplay(sources, 0, start, horizon)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		s, ok := replay2.Next()
		if !ok {
			break
		}
		k := fleetID[s.JobID]
		w := k % conns
		line, _ := json.Marshal(struct {
			Job    int       `json:"job"`
			Values []float64 `json:"values"`
		}{k, s.Values})
		cur[w] = append(cur[w], string(line))
		total++
		if len(cur[w]) == batchSz {
			flush(w)
		}
	}
	for w := 0; w < conns; w++ {
		flush(w)
	}

	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for _, body := range bodies[w] {
				for {
					resp, err := client.Post(ts.URL+"/v1/ingest", "application/x-ndjson", bytes.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					var ir ingestResponse
					code := resp.StatusCode
					if code == http.StatusOK {
						json.NewDecoder(resp.Body).Decode(&ir)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if code != http.StatusOK || ir.Rejected != 0 {
						errc <- fmt.Errorf("conn %d: status %d, accounting %+v", w, code, ir)
						return
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Graceful drain: the final tick classifies whatever the cadence ticker
	// had not caught yet.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := served.SamplesIngested(); got != uint64(total) {
		t.Fatalf("server ingested %d samples, replay emitted %d", got, total)
	}

	for k := range sources {
		want, ok := inproc.Prediction(k)
		if !ok {
			t.Fatalf("job %d: in-process fleet has no prediction", k)
		}
		// Read through the API so the comparison covers JSON float
		// round-tripping, not just the registry.
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/prediction", ts.URL, k))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: prediction status %d", k, resp.StatusCode)
		}
		var pr predictionResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := &stream.Prediction{Class: pr.Class, Probability: pr.Probability, Probs: pr.Probs}
		if !servetest.SamePrediction(got, want) {
			t.Fatalf("job %d: served prediction (%d, %v) not bit-identical to in-process (%d, %v)",
				k, got.Class, got.Probs, want.Class, want.Probs)
		}
	}
}
