// Command wccload drives the wccserve -listen HTTP API with simulated
// telemetry over real loopback (or network) connections — the load
// generator for the serving layer. It asks the server for its window shape
// (/healthz), replays simulated jobs fanned out to the requested fleet
// size, and streams batched ingest requests — NDJSON lines or, with
// -framing binary, the length-prefixed binary records of internal/wire —
// from several concurrent connections,
// honouring the server's 429 + Retry-After backpressure. Each fleet job's
// samples always ride the same connection, so per-job sample order is
// preserved end to end and server-side predictions are bit-identical to an
// in-process fleet.Monitor fed the same replay, whichever framing carried
// them.
//
// It reports client-observed ingest throughput and request latency
// percentiles, then reads the fleet snapshot back and scores the server's
// final classifications against the simulation's ground truth. With
// -events it additionally holds a GET /v1/events SSE subscription open for
// the duration of the run and reports how many events of each type the
// push plane delivered.
//
// Usage:
//
//	wccload -addr http://127.0.0.1:8077 -jobs 256 -seconds 120
//	wccload -addr http://127.0.0.1:8077 -jobs 64 -scale 0.05 -batch 512 -conns 4
//
// -scale and -seed must match the serving model's training provenance for
// the accuracy report to be meaningful: wccinfo shows an artifact's
// provenance, and the defaults here match wcctrain's (scale 0.15, seed 1)
// so an artifact made with wcctrain -o and no sizing flags is scored
// correctly out of the box.
//
// With -cluster (comma-separated node URLs of a wccserve -cluster fleet)
// each job's batches are sent straight to the node that owns the job —
// the same splitmix64 hash the nodes route by — so the happy path needs
// no server-side forwarding. A node that fails mid-run reroutes its
// batches to the next node (counted, not fatal), and the final fleet
// snapshot is the union of every node's.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "base URL of the wccserve -listen API")
	jobs := flag.Int("jobs", 256, "number of concurrent fleet jobs to drive")
	scale := flag.Float64("scale", 0.15, "simulation scale; must match the serving model's training provenance (wccinfo shows it) for the accuracy report to mean anything")
	seed := flag.Int64("seed", 1, "simulation seed; must match the serving model's training provenance")
	start := flag.Float64("start", 120, "job time at which replay begins (skips the class-agnostic startup phase)")
	seconds := flag.Float64("seconds", 120, "seconds of telemetry to replay per job (must exceed the server's window)")
	batch := flag.Int("batch", 256, "samples per ingest request")
	framing := flag.String("framing", "ndjson", "ingest framing: ndjson or binary (length-prefixed records, Content-Type application/x-wcc-ingest)")
	conns := flag.Int("conns", runtime.GOMAXPROCS(0), "concurrent client connections; each fleet job is pinned to one connection")
	unknownFrac := flag.Float64("unknown-frac", 0, "fraction of fleet jobs driven from out-of-distribution workload profiles; their rejection recall/precision is scored against the server's unknown verdicts")
	events := flag.Bool("events", false, "subscribe to GET /v1/events for the duration of the run and report delivered event counts by type")
	clusterURLs := flag.String("cluster", "", "comma-separated base URLs of a wccserve -cluster fleet; each job's batches go to its owning node (client-side hash), and a failing node reroutes to the next instead of aborting the run")
	adaptReport := flag.Bool("adapt", false, "read GET /v1/adapt after the run and report the continual-learning flywheel's state")
	flag.Parse()

	if err := run(os.Stdout, config{
		addr: *addr, jobs: *jobs, scale: *scale, seed: *seed,
		start: *start, seconds: *seconds, batch: *batch, conns: *conns,
		unknownFrac: *unknownFrac, framing: *framing, events: *events,
		cluster: *clusterURLs, adapt: *adaptReport,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "wccload:", err)
		os.Exit(1)
	}
}

type config struct {
	addr           string
	jobs           int
	scale          float64
	seed           int64
	start, seconds float64
	batch          int
	conns          int
	unknownFrac    float64
	framing        string
	events         bool
	cluster        string
	adapt          bool
}

// health mirrors the server's /healthz payload.
type health struct {
	Window  int `json:"window"`
	Sensors int `json:"sensors"`
	Shards  int `json:"shards"`
}

// ingestResponse mirrors the server's per-request ingest accounting.
type ingestResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Errors   []struct {
		Line  int    `json:"line"`
		Error string `json:"error"`
	} `json:"errors"`
}

// snapshot mirrors GET /v1/jobs.
type snapshot struct {
	Count int `json:"count"`
	Jobs  []struct {
		Job     int   `json:"job"`
		Ready   bool  `json:"ready"`
		Class   *int  `json:"class"`
		Unknown *bool `json:"unknown"`
	} `json:"jobs"`
}

// driftState mirrors GET /v1/drift.
type driftState struct {
	Enabled  bool    `json:"enabled"`
	Score    float64 `json:"score"`
	Unknowns uint64  `json:"unknowns"`
}

// connStats accumulates one sender connection's observations.
type connStats struct {
	requests  int
	throttled int
	rerouted  int
	accepted  int
	rejected  int
	latencies []time.Duration
	firstErr  string
}

// reqBody is one prepared ingest request: the batch bytes plus the node
// it should land on first (always 0 outside cluster mode).
type reqBody struct {
	node int
	data []byte
}

// run is the whole command behind flag parsing: check the configuration,
// prepare the replay, drive it, and write the report to out.
func run(out io.Writer, c config) error {
	if c.jobs < 1 || c.batch < 1 {
		return fmt.Errorf("need jobs ≥ 1 and batch ≥ 1")
	}
	contentType := "application/x-ndjson"
	switch c.framing {
	case "", "ndjson":
		c.framing = "ndjson"
	case "binary":
		contentType = wire.IngestContentType
	default:
		return fmt.Errorf("unknown -framing %q (want ndjson or binary)", c.framing)
	}
	if c.conns < 1 {
		c.conns = 1
	}
	// In cluster mode every node URL is a routing target: job k's batches
	// go to node JobHash(k) % N first — the same splitmix64 placement the
	// nodes use — so the common case needs no server-side forwarding.
	nodes := []string{c.addr}
	if c.cluster != "" {
		nodes = strings.Split(c.cluster, ",")
		for i := range nodes {
			nodes[i] = strings.TrimRight(strings.TrimSpace(nodes[i]), "/")
		}
	}
	nodeOf := func(job int) int { return int(fleet.JobHash(job) % uint64(len(nodes))) }

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: c.conns}}
	defer client.CloseIdleConnections()
	hl, err := getJSON[health](client, nodes[0]+"/healthz") // 503 unless healthy
	if err != nil {
		return fmt.Errorf("server not reachable at %s: %w", nodes[0], err)
	}
	if hl.Window < 2 || hl.Sensors < 1 {
		return fmt.Errorf("server reports implausible window shape %dx%d", hl.Window, hl.Sensors)
	}
	windowSec := float64(hl.Window) * telemetry.GPUSampleDT
	if c.seconds <= windowSec {
		return fmt.Errorf("replay horizon %.0fs must exceed the server's %.0fs window", c.seconds, windowSec)
	}

	// Fleet job k replays source k % len(sources).
	sim, err := core.Provenance{Scale: c.scale, Seed: c.seed}.Simulator()
	if err != nil {
		return err
	}
	var sources []*telemetry.Job
	for _, j := range sim.Jobs() {
		if j.Duration >= c.start+windowSec+1 {
			sources = append(sources, j)
		}
	}
	if len(sources) == 0 {
		return fmt.Errorf("no simulated job runs past start %.0fs + the %.0fs window", c.start, windowSec)
	}
	// Fleet jobs past mix.IDJobs replay out-of-distribution profiles; the
	// server should reject them as unknown.
	mix, err := telemetry.PlanFleetMix(sources, c.jobs, c.unknownFrac, c.seed)
	if err != nil {
		return err
	}
	replay, err := telemetry.NewReplay(mix.ReplaySources(), 0, c.start, c.start+c.seconds)
	if err != nil {
		return err
	}
	fanout := mix.Fanout

	// Materialise each connection's request bodies up front, so the timed
	// phase measures serving, not sample encoding. Fleet job k is pinned to
	// connection k % conns, preserving per-job sample order, and batches
	// are kept per (connection, node) so one request never mixes jobs
	// owned by different cluster nodes.
	bodies := make([][]reqBody, c.conns)
	cur := make([][][]byte, c.conns)
	lines := make([][]int, c.conns)
	for w := range cur {
		cur[w] = make([][]byte, len(nodes))
		lines[w] = make([]int, len(nodes))
	}
	flush := func(w, nd int) {
		if lines[w][nd] == 0 {
			return
		}
		bodies[w] = append(bodies[w], reqBody{node: nd, data: cur[w][nd]})
		cur[w][nd], lines[w][nd] = nil, 0
	}
	totalSamples := 0
	for {
		s, ok := replay.Next()
		if !ok {
			break
		}
		var line []byte
		if contentType != wire.IngestContentType {
			line, err = json.Marshal(struct {
				Job    int       `json:"job"`
				Values []float64 `json:"values"`
			}{0, s.Values})
			if err != nil {
				return err
			}
		}
		for _, k := range fanout[s.JobID] {
			w, nd := k%c.conns, nodeOf(k)
			if contentType == wire.IngestContentType {
				cur[w][nd] = wire.AppendIngestRecord(cur[w][nd], int64(k), s.Values)
			} else {
				// Patch the job ID per fan-out target instead of
				// re-marshalling the seven floats each time.
				patched := append([]byte(`{"job":`+strconv.Itoa(k)+`,`), line[len(`{"job":0,`):]...)
				cur[w][nd] = append(cur[w][nd], patched...)
				cur[w][nd] = append(cur[w][nd], '\n')
			}
			totalSamples++
			if lines[w][nd]++; lines[w][nd] == c.batch {
				flush(w, nd)
			}
		}
	}
	for w := 0; w < c.conns; w++ {
		for nd := range nodes {
			flush(w, nd)
		}
	}

	requests := 0
	for w := range bodies {
		requests += len(bodies[w])
	}
	fmt.Fprintf(out, "driving %d fleet jobs (%d out-of-distribution) over %d telemetry series into %d serving shards: %d samples in %d requests (%d-sample %s batches) across %d connections\n",
		c.jobs, mix.UnknownJobs, replay.NumJobs(), hl.Shards, totalSamples, requests, c.batch, c.framing, c.conns)
	if len(nodes) > 1 {
		fmt.Fprintf(out, "cluster mode: %d nodes, batches routed by client-side job hash\n", len(nodes))
	}

	// Optional event-plane audit: hold one SSE subscription open across the
	// run so the report can say what the push plane delivered, not just what
	// the poll endpoints show after the fact.
	var ev *eventWatch
	if c.events {
		ev, err = watchEvents(client, nodes[0])
		if err != nil {
			return fmt.Errorf("subscribing to /v1/events: %w", err)
		}
	}

	stats := make([]connStats, c.conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sendAll(client, nodes, contentType, bodies[w], &stats[w])
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	var all connStats
	for _, st := range stats {
		if st.firstErr != "" && all.firstErr == "" {
			all.firstErr = st.firstErr
		}
		all.requests += st.requests
		all.throttled += st.throttled
		all.rerouted += st.rerouted
		all.accepted += st.accepted
		all.rejected += st.rejected
		all.latencies = append(all.latencies, st.latencies...)
	}
	if all.firstErr != "" {
		return fmt.Errorf("ingest failed: %s", all.firstErr)
	}

	fmt.Fprintf(out, "\nsent %d samples in %s\n", totalSamples, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  ingest throughput: %.0f samples/sec (client-observed, end to end)\n", float64(all.accepted)/elapsed.Seconds())
	fmt.Fprintf(out, "  requests:          %d ok, %d throttled (429, retried), %d rerouted, %d line errors\n",
		all.requests, all.throttled, all.rerouted, all.rejected)
	fmt.Fprintf(out, "  request latency:   p50 %s  p95 %s  p99 %s  max %s\n",
		percentile(all.latencies, 0.50), percentile(all.latencies, 0.95),
		percentile(all.latencies, 0.99), percentile(all.latencies, 1.0))
	if all.accepted != totalSamples {
		if len(nodes) == 1 {
			return fmt.Errorf("server accepted %d of %d samples", all.accepted, totalSamples)
		}
		// A cluster replay that crossed a node failure has bounded,
		// accounted loss: report it instead of failing the run.
		fmt.Fprintf(out, "  note: cluster accepted %d of %d samples (%d lost across reroutes)\n",
			all.accepted, totalSamples, totalSamples-all.accepted)
	}

	// Read the fleet back and score it against the simulation's truth:
	// classification accuracy over the labelled jobs, unknown-rejection
	// recall/precision over the out-of-distribution jobs.
	// In cluster mode each node's snapshot covers only the jobs it owns;
	// the union is the fleet.
	snap := &snapshot{}
	for _, nd := range nodes {
		s, err := getJSON[snapshot](client, nd+"/v1/jobs")
		if err != nil {
			if len(nodes) > 1 {
				fmt.Fprintf(out, "  note: snapshot from %s failed (%v); its jobs are missing from the score\n", nd, err)
				continue
			}
			return err
		}
		snap.Count += s.Count
		snap.Jobs = append(snap.Jobs, s.Jobs...)
	}
	correct, scored := 0, 0
	var tally drift.RejectionTally
	for _, row := range snap.Jobs {
		if row.Class == nil || row.Job >= c.jobs {
			continue
		}
		tally.Add(mix.IsUnknown(row.Job), row.Unknown != nil && *row.Unknown)
		if mix.IsUnknown(row.Job) {
			continue
		}
		scored++
		if telemetry.Class(*row.Class) == mix.Sources[row.Job%len(mix.Sources)].Class {
			correct++
		}
	}
	fmt.Fprintf(out, "  fleet snapshot:    %d jobs registered on the server\n", snap.Count)
	if scored > 0 {
		fmt.Fprintf(out, "  live accuracy:     %.1f%% (%d/%d labelled jobs classified)\n",
			100*float64(correct)/float64(scored), scored, mix.IDJobs)
	}
	switch ds, err := getJSON[driftState](client, nodes[0]+"/v1/drift"); {
	case err != nil:
		// A transport or server failure is not "drift disabled": say so,
		// or an operator (and CI's recall gate) mis-diagnoses the cause.
		return fmt.Errorf("reading /v1/drift: %w", err)
	case ds.Enabled:
		fmt.Fprintf(out, "  drift score:       %.3f (server-side max per-sensor PSI, %d unknown verdicts)\n", ds.Score, ds.Unknowns)
		fmt.Fprint(out, tally.Report())
	case mix.UnknownJobs > 0:
		fmt.Fprintf(out, "  note: %d out-of-distribution jobs injected but the server reports no drift calibration\n", mix.UnknownJobs)
	}
	if c.adapt {
		as, err := getJSON[adaptState](client, nodes[0]+"/v1/adapt")
		if err != nil {
			return fmt.Errorf("reading /v1/adapt: %w", err)
		}
		if !as.Enabled {
			fmt.Fprintf(out, "  adapt flywheel:    disabled on the server (wccserve -adapt)\n")
		} else {
			fmt.Fprintf(out, "  adapt flywheel:    phase %s, %d/%d rejected windows buffered, %d families, gate ready %v, %d promotions\n",
				as.Phase, as.Buffered, as.BufferCapacity, len(as.Families), as.GateReady, as.Promotions)
			if as.Shadow != nil {
				fmt.Fprintf(out, "  adapt shadow:      %d windows, agreement %.3f, unknown rate serving %.3f vs candidate %.3f\n",
					as.Shadow.Windows, as.Shadow.Agreement, as.Shadow.ServingUnknownRate, as.Shadow.CandidateUnknownRate)
			}
		}
	}
	if ev != nil {
		counts, evicted, readErr := ev.stop()
		total := 0
		var parts []string
		for _, tc := range counts {
			total += tc.n
			parts = append(parts, fmt.Sprintf("%d %s", tc.n, tc.typ))
		}
		line := "none"
		if len(parts) > 0 {
			line = strings.Join(parts, ", ")
		}
		fmt.Fprintf(out, "  events delivered:  %d over SSE (%s)\n", total, line)
		if evicted {
			fmt.Fprintf(out, "  note: the event subscription was evicted for falling behind (queue overflow)\n")
		}
		if readErr != nil {
			fmt.Fprintf(out, "  note: the event stream failed mid-run (%v); delivery counts are a lower bound\n", readErr)
		}
	}
	return nil
}

// eventWatch counts SSE frames from one GET /v1/events subscription.
type eventWatch struct {
	body    io.ReadCloser
	mu      sync.Mutex
	counts  map[string]int
	evicted bool
	readErr error // scanner error other than our own teardown close
	done    chan struct{}
}

// watchEvents opens the subscription and starts counting; the first frame
// of each type arrives as an "event: <type>" line in the SSE framing.
func watchEvents(client *http.Client, addr string) (*eventWatch, error) {
	resp, err := client.Get(addr + "/v1/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("events status %d", resp.StatusCode)
	}
	w := &eventWatch{body: resp.Body, counts: make(map[string]int), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			typ, ok := strings.CutPrefix(sc.Text(), "event: ")
			if !ok {
				continue
			}
			w.mu.Lock()
			if typ == "eviction" {
				w.evicted = true
			} else {
				w.counts[typ]++
			}
			w.mu.Unlock()
		}
		// The scanner is sticky: a mid-stream read failure ends the loop
		// silently, which would undercount deliveries. stop() closes the
		// body on purpose, so that one error is expected; anything else
		// is a real stream failure the summary must disclose.
		if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
			w.mu.Lock()
			w.readErr = err
			w.mu.Unlock()
		}
	}()
	return w, nil
}

type typeCount struct {
	typ string
	n   int
}

// stop lets in-flight write-back events settle, closes the subscription,
// and returns per-type delivery counts in a stable order.
func (w *eventWatch) stop() ([]typeCount, bool, error) {
	time.Sleep(500 * time.Millisecond)
	w.body.Close()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]typeCount, 0, len(w.counts))
	for typ, n := range w.counts {
		out = append(out, typeCount{typ, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].typ < out[j].typ })
	return out, w.evicted, w.readErr
}

// adaptState mirrors the fields of GET /v1/adapt the report reads.
type adaptState struct {
	Enabled        bool   `json:"enabled"`
	Phase          string `json:"phase"`
	Buffered       int    `json:"buffered"`
	BufferCapacity int    `json:"buffer_capacity"`
	Families       []struct {
		ID    int `json:"id"`
		Count int `json:"count"`
	} `json:"families"`
	GateReady  bool   `json:"gate_ready"`
	Promotions uint64 `json:"promotions_total"`
	Shadow     *struct {
		Windows              uint64  `json:"windows"`
		Agreement            float64 `json:"agreement"`
		ServingUnknownRate   float64 `json:"serving_unknown_rate"`
		CandidateUnknownRate float64 `json:"candidate_unknown_rate"`
	} `json:"shadow"`
}

// sendAll posts one connection's bodies in order, retrying 429s after the
// server's advertised backoff. A node that fails at the transport or
// answers 5xx does not kill the run: the batch reroutes to the next node
// in the ring (the cluster forwards or re-owns the jobs server-side) and
// the reroute is counted. Only a full rotation of failures — no node
// would take the batch — is fatal.
func sendAll(client *http.Client, nodes []string, contentType string, bodies []reqBody, st *connStats) {
	for _, body := range bodies {
		shift := 0
		for {
			addr := nodes[(body.node+shift)%len(nodes)]
			reqStart := time.Now()
			resp, err := client.Post(addr+"/v1/ingest", contentType, bytes.NewReader(body.data))
			if err == nil && resp.StatusCode >= 500 {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				err = fmt.Errorf("status %d from %s", resp.StatusCode, addr)
			}
			if err != nil {
				if shift++; shift < len(nodes) {
					st.rerouted++
					continue
				}
				st.firstErr = fmt.Sprintf("no node took the batch; the last said: %v", err)
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				st.throttled++
				time.Sleep(retryAfter(resp))
				continue
			}
			var ir ingestResponse
			decErr := json.NewDecoder(resp.Body).Decode(&ir)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decErr != nil {
				st.firstErr = fmt.Sprintf("status %d (decode: %v)", resp.StatusCode, decErr)
				return
			}
			st.requests++
			st.latencies = append(st.latencies, time.Since(reqStart))
			st.accepted += ir.Accepted
			st.rejected += ir.Rejected
			if ir.Rejected > 0 && st.firstErr == "" && len(ir.Errors) > 0 {
				st.firstErr = fmt.Sprintf("line %d: %s", ir.Errors[0].Line, ir.Errors[0].Error)
				return
			}
			break
		}
	}
}

// retryAfter parses the server's backoff hint, defaulting to 50ms so a
// missing header cannot stall the driver.
func retryAfter(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 50 * time.Millisecond
}

// getJSON reads one of the server's JSON read endpoints into a T.
func getJSON[T any](client *http.Client, url string) (*T, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// percentile returns the q-quantile of the observed durations (nearest-rank).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}
