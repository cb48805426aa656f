package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/stream"
	"repro/internal/wire"
)

// newConn returns a client that holds exactly one keep-alive connection:
// the workloads are sized in connections, not in requests in flight.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// ingestReply is the accounting POST /v1/ingest answers with.
type ingestReply struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// ingestTally accumulates one connection's ingest outcomes.
type ingestTally struct {
	requests, throttled, failed int
	sent, accepted, rejected    int
}

func (t *ingestTally) add(o ingestTally) {
	t.requests += o.requests
	t.throttled += o.throttled
	t.failed += o.failed
	t.sent += o.sent
	t.accepted += o.accepted
	t.rejected += o.rejected
}

// post sends one ingest body and folds the outcome into t. A request
// counts as failed on a transport error, any status but 200, or a reply
// that does not account for every sample sent.
func post(c *http.Client, base, contentType string, body []byte, samples int, t *ingestTally) {
	t.requests++
	t.sent += samples
	req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		t.failed++
		return
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(samplesHeader, strconv.Itoa(samples))
	resp, err := c.Do(req)
	if err != nil {
		t.failed++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused; the status is the failure
		if resp.StatusCode == http.StatusTooManyRequests {
			t.throttled++
		}
		t.failed++
		return
	}
	var r ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.failed++
		return
	}
	t.accepted += r.Accepted
	t.rejected += r.Rejected
	if r.Accepted != samples || r.Rejected != 0 {
		t.failed++
	}
}

// get issues one read and reports whether it answered 200.
func get(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK
}

const ndjsonContentType = "application/x-ndjson"

// appendNDJSON appends one ingest line. Floats are written in their
// shortest round-tripping form, so the server parses back the exact bits.
func appendNDJSON(dst []byte, job int, values []float64) []byte {
	dst = append(dst, `{"job":`...)
	dst = strconv.AppendInt(dst, int64(job), 10)
	dst = append(dst, `,"values":[`...)
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, "]}\n"...)
}

// appendSample appends one sample in the given framing.
func appendSample(dst []byte, binary bool, job int, values []float64) []byte {
	if binary {
		return wire.AppendIngestRecord(dst, int64(job), values)
	}
	return appendNDJSON(dst, job, values)
}

// sampleStream replays one independent slice of a run's accepted samples,
// in the order they were sent: it calls ingest once per sample. Streams
// share no job, so they may be replayed concurrently.
type sampleStream func(ingest func(job int, v []float64))

// drainAndCheck shuts the listener, drains the server, and compares every
// job's final prediction with a reference fleet.Monitor that was fed the
// same per-job sample sequences directly, one goroutine per stream. It
// returns the time the streams spent (summed over streams) and the samples
// they replayed: the bare-monitor ingest cost that the shard layer's self
// time is measured against.
func (s *serving) drainAndCheck(res *result, streams []sampleStream) (secs float64, samples int) {
	if err := s.close(); err != nil {
		res.fail("drain: %v", err)
	}

	ref, err := fleet.New(fleet.Config{
		Window: s.window, Sensors: s.core.Sensors(), Scaler: s.mdl.res.Scaler,
		Model: s.mdl.res.Model, Drift: s.mdl.res.Drift,
	})
	if err != nil {
		res.fail("reference monitor: %v", err)
		return 0, 0
	}
	ids := s.opts.ids()
	for _, id := range ids {
		for step := 0; step < s.window; step++ {
			if err := ref.Ingest(id, s.feed.sample(id, step)); err != nil {
				res.fail("reference pre-fill: %v", err)
				return 0, 0
			}
		}
	}
	type outcome struct {
		secs    float64
		samples int
		err     error
	}
	outcomes := make([]outcome, len(streams))
	var wg sync.WaitGroup
	for i, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outcomes[i]
			t0 := time.Now()
			stream(func(job int, v []float64) {
				o.samples++
				if err := ref.Ingest(job, v); err != nil && o.err == nil {
					o.err = err
				}
			})
			o.secs = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	for _, o := range outcomes {
		secs += o.secs
		samples += o.samples
		if o.err != nil {
			res.fail("reference replay: %v", o.err)
		}
	}
	if _, err := ref.Tick(); err != nil {
		res.fail("reference tick: %v", err)
	}
	mismatched := 0
	for _, id := range ids {
		got, ok1 := s.core.Prediction(id)
		want, ok2 := ref.Prediction(id)
		if !ok1 || !ok2 || !samePrediction(got, want) {
			mismatched++
		}
	}
	res.attempted += len(ids)
	res.failed += mismatched
	if mismatched > 0 {
		res.fail("%d of %d final predictions differ from the reference monitor", mismatched, len(ids))
	}
	if got := s.core.SamplesIngested(); got != uint64(len(ids)*s.window+samples) {
		res.fail("server ingested %d samples, reference %d", got, len(ids)*s.window+samples)
	}
	return secs, samples
}

// samePrediction compares two predictions bit for bit, open-set
// annotation included.
func samePrediction(a, b *stream.Prediction) bool {
	if a.Class != b.Class || !sameBits(a.Probability, b.Probability) || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if !sameBits(a.Probs[i], b.Probs[i]) {
			return false
		}
	}
	if (a.Open == nil) != (b.Open == nil) {
		return false
	}
	if a.Open == nil {
		return true
	}
	return a.Open.Rejected == b.Open.Rejected && sameBits(a.Open.Margin, b.Open.Margin) &&
		sameBits(a.Open.Energy, b.Open.Energy) && sameBits(a.Open.FeatDist, b.Open.FeatDist)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkIngest folds one workload's ingest tally into the result: accepted
// must equal sent, with no rejected line, no 429 and no failed request.
func checkIngest(res *result, t ingestTally) {
	res.attempted += t.requests
	res.failed += t.failed
	if t.failed > 0 || t.accepted != t.sent || t.rejected != 0 {
		res.fail("ingest: %d requests, %d failed (%d throttled); sent %d samples, accepted %d, rejected %d",
			t.requests, t.failed, t.throttled, t.sent, t.accepted, t.rejected)
	}
}

func contentType(binary bool) string {
	if binary {
		return wire.IngestContentType
	}
	return ndjsonContentType
}
