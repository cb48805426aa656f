package server

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/servetest"
	"repro/internal/telemetry"
)

// The server's rows of the served-equivalence table (servetest.Serve): one
// seeded stream with refused lines mixed in, posted over real loopback
// connections and held to an in-process fleet.Monitor, refusal by refusal
// and prediction bit by prediction bit.

// inProcess is the reference a served table is held to: a fresh
// single-partition monitor of servetest.Fixture's shape, which fleetCfg,
// when non-nil, adjusts as newTestServer's hook does.
func inProcess(t *testing.T, fleetCfg func(*fleet.Config)) servetest.Reference {
	t.Helper()
	scaler, model := servetest.Fixture(t)
	fc := fleet.Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model}
	if fleetCfg != nil {
		fleetCfg(&fc)
	}
	m, err := fleet.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	return servetest.Reference{Ingest: m.Ingest, Prediction: m.Prediction,
		Tick: func() error { _, err := m.Tick(); return err }}
}

// servedRow completes row with a fresh newTestServer (fleetCfg and mutate as
// there) that every job is posted to and read from; the drain is Close,
// whose final tick classifies what the cadence had not.
func servedRow(t *testing.T, row servetest.Row, fleetCfg func(*fleet.Config), mutate func(*Config)) servetest.Row {
	t.Helper()
	s, m, ts := newTestServer(t, fleetCfg, mutate)
	row.PostTo = func(int) string { return ts.URL }
	row.ReadFrom = row.PostTo
	row.Drain = func(t testing.TB) uint64 {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return m.SamplesIngested()
	}
	return row
}

// fixtureStream is the table stream over servetest.Fixture's shape: jobs
// full streams of perJob samples and one more job, number jobs, whose window
// never fills.
func fixtureStream(seed int64, jobs, perJob int) []servetest.Line {
	streams := append(servetest.JobStreams(jobs, perJob), servetest.JobSamples(jobs, servetest.Window-1))
	lines, _ := servetest.Interleave(rand.New(rand.NewSource(seed)), streams)
	return lines
}

// TestServerMatchesInProcessFleet is the serving-layer acceptance
// invariant on simulated telemetry at the wide 24×GPU shape: three
// concurrent NDJSON connections, the server ticking every 2ms, end in the
// in-process fleet's refusals and prediction bits for every job.
func TestServerMatchesInProcessFleet(t *testing.T) {
	const (
		window  = 24
		sensors = int(telemetry.NumGPUSensors)
		start   = 30.0
	)
	scaler, model := servetest.Wide(t, window, sensors)
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 5, Scale: 0.02, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	horizon := start + float64(window)*telemetry.GPUSampleDT + 10
	var sources []*telemetry.Job
	for _, j := range sim.Jobs() {
		if j.Duration >= horizon+1 && len(sources) < 8 {
			sources = append(sources, j)
		}
	}
	if len(sources) < 4 {
		t.Fatalf("only %d usable simulated jobs", len(sources))
	}
	// Job k replays source k; one job more replays too little of source 0
	// to fill a window.
	replay, err := telemetry.NewReplay(sources, 0, start, horizon)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][][]float64, len(sources))
	for s, ok := replay.Next(); ok; s, ok = replay.Next() {
		for k, j := range sources {
			if j.ID == s.JobID {
				streams[k] = append(streams[k], s.Values)
			}
		}
	}
	streams = append(streams, streams[0][:window-1])
	lines, _ := servetest.Interleave(rand.New(rand.NewSource(5)), streams)

	shape := func(fc *fleet.Config) { fc.Window, fc.Sensors, fc.Scaler, fc.Model = window, sensors, scaler, model }
	servetest.Serve(t, lines, len(sources), inProcess(t, shape), servedRow(t, servetest.Row{Conns: 3, Batch: 32}, shape, func(c *Config) {
		c.ClassNames = nil
		c.TickEvery, c.queueDepth, c.Workers = 2*time.Millisecond, 64, 4
	}))
}

// TestShardedServerMatchesInProcessFleet serves a 4-shard core, per-shard
// tick loops on their own cadence, to four concurrent clients, once over
// NDJSON and once over binary frames, and holds both to one single-partition
// in-process fleet.
func TestShardedServerMatchesInProcessFleet(t *testing.T) {
	row := func(name string, binary bool) servetest.Row {
		return servedRow(t, servetest.Row{Name: name, Binary: binary, Conns: 4, Batch: 40},
			func(c *fleet.Config) { c.Shards = 4 }, func(c *Config) { c.TickEvery = time.Millisecond })
	}
	const jobs = 48
	servetest.Serve(t, fixtureStream(7, jobs, servetest.Window*2+3), jobs, inProcess(t, nil), row("ndjson", false), row("binary", true))
}

// TestBinaryIngestMatchesNDJSON is the framing equivalence invariant: the
// same stream, one request to each of two servers, NDJSON to one and binary
// frames to the other, ends in the same refusals and prediction bits as one
// in-process fleet. json.Marshal emits the shortest round-tripping decimal
// for a float64, so both framings deliver the same bits to the fleet.
func TestBinaryIngestMatchesNDJSON(t *testing.T) {
	row := func(name string, binary bool) servetest.Row {
		return servedRow(t, servetest.Row{Name: name, Binary: binary, Conns: 1, Batch: 1 << 10}, nil, nil)
	}
	// Seed 4's stream refuses lines of all five kinds.
	const jobs = 8
	servetest.Serve(t, fixtureStream(4, jobs, servetest.Window+3), jobs, inProcess(t, nil), row("ndjson", false), row("binary", true))
}
