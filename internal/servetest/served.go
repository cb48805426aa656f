package servetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// The served-equivalence table. Every way of serving a stream over HTTP —
// a partition count, a framing, a connection count, a cluster's entry and
// read nodes — must refuse the lines an in-process fleet refuses, with its
// words, and serve the predictions it computes, bit for bit. Each way is a
// Row; Serve posts the stream to it, drains it and reads every job's
// prediction back through the API. A new serving axis over HTTP is a new
// row, not a new suite.

// Reference is the in-process fleet a served table is held to, as closures
// over it: Ingest feeds one line and returns its refusal, Tick classifies
// every pending window, and Prediction reads a job's prediction. A
// fleet.Monitor's Ingest and Prediction methods are the usual arguments.
type Reference struct {
	Ingest     func(job int, values []float64) error
	Tick       func() error
	Prediction func(job int) (*stream.Prediction, bool)
}

// Row is one way of serving a table's stream.
type Row struct {
	// Name names the row's subtest; a table of one row may leave it empty.
	Name string
	// PostTo and ReadFrom give the base URL a job's lines are posted to and
	// its prediction is read from.
	PostTo, ReadFrom func(job int) string
	// Binary posts in internal/wire's binary framing, otherwise NDJSON.
	Binary bool
	// Conns is the number of concurrent connections: connection c carries
	// every line of the jobs j with j%Conns == c, in stream order. Batch is
	// the most lines one request carries.
	Conns, Batch int
	// Drain finishes what was posted, a final tick included, and returns the
	// samples the served side ingested; it fails the row's t on an error.
	Drain func(t testing.TB) uint64
}

// Serve feeds lines to ref, ticking every 97 lines and at the end, and then
// holds each row to it, as a subtest when the row has a name. For every
// reply it checks the accepted count and that each refused line is named by
// its client line number with the reference's error; a NaN has no NDJSON
// spelling, so such a line is sent malformed and only checked as refused.
// After the drain the served side must have ingested exactly the accepted
// lines, and every job's prediction, read with GET (following redirects),
// must be bit-identical to the reference's. short is the one job whose
// window never fills: it alone must have no reference prediction and must
// read as a 404, so a fault that leaves the reference without predictions
// fails the table rather than emptying its comparison.
func Serve(t *testing.T, lines []Line, short int, ref Reference, rows ...Row) {
	t.Helper()
	refused := map[int]string{}
	var jobs []int
	for i, l := range lines {
		if err := ref.Ingest(l.Job, l.Values); err != nil {
			refused[i] = err.Error()
		}
		if !slices.Contains(jobs, l.Job) {
			jobs = append(jobs, l.Job)
		}
		if (i+1)%97 == 0 {
			if err := ref.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(refused) == 0 {
		t.Fatal("the reference refused no line: the table would check no refusal")
	}
	if !slices.Contains(jobs, short) {
		t.Fatalf("job %d, whose window never fills, has no line", short)
	}
	for _, job := range jobs {
		if _, ok := ref.Prediction(job); ok == (job == short) {
			t.Fatalf("job %d: the reference has a prediction: %v; every job but %d should have one", job, ok, short)
		}
	}
	table := servedTable{lines: lines, refused: refused, jobs: jobs, ref: ref}
	for _, row := range rows {
		if row.Name == "" {
			table.run(t, row)
			continue
		}
		t.Run(row.Name, func(t *testing.T) { table.run(t, row) })
	}
}

// servedTable is a table's stream with the reference's verdicts on it.
type servedTable struct {
	lines   []Line
	refused map[int]string // stream index → the reference's error
	jobs    []int
	ref     Reference
}

// servedBatch is one request: the base URL and the stream indices of its
// lines, in order.
type servedBatch struct {
	url string
	idx []int
}

func (tb *servedTable) run(t *testing.T, row Row) {
	t.Helper()
	conns := make([][]servedBatch, row.Conns)
	for i, l := range tb.lines {
		c, url := l.Job%row.Conns, row.PostTo(l.Job)
		if n := len(conns[c]); n == 0 || conns[c][n-1].url != url || len(conns[c][n-1].idx) == row.Batch {
			conns[c] = append(conns[c], servedBatch{url: url})
		}
		b := &conns[c][len(conns[c])-1]
		b.idx = append(b.idx, i)
	}
	var wg sync.WaitGroup
	for c, batches := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for _, b := range batches {
				if err := tb.post(client, row.Binary, b); err != nil {
					t.Errorf("connection %d: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, want := row.Drain(t), uint64(len(tb.lines)-len(tb.refused)); got != want {
		t.Fatalf("the served side ingested %d samples, the replies accepted %d", got, want)
	}

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, job := range tb.jobs {
		want, ok := tb.ref.Prediction(job)
		got, code, err := readPrediction(client, fmt.Sprintf("%s/v1/jobs/%d/prediction", row.ReadFrom(job), job))
		switch {
		case err != nil:
			t.Fatalf("job %d: %v", job, err)
		case !ok && code != http.StatusNotFound:
			t.Fatalf("job %d: the reference has no prediction, the API answered %d", job, code)
		case ok && code != http.StatusOK:
			t.Fatalf("job %d: prediction status %d", job, code)
		case ok:
			AssertSamePrediction(t, job, got, want)
		}
	}
}

// ingestReply is an ingest reply as the API documents it.
type ingestReply struct {
	Accepted  int       `json:"accepted"`
	Rejected  int       `json:"rejected"`
	Errors    []refusal `json:"errors"`
	Truncated bool      `json:"errors_truncated"`
}

// refusal is one refused line of a reply: its number in the request's body
// and the error.
type refusal struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// post sends one batch, again after a short wait while the server answers
// 429, and checks the reply against the reference's verdicts.
func (tb *servedTable) post(client *http.Client, binary bool, b servedBatch) error {
	var body []byte
	contentType := "application/x-ndjson"
	if binary {
		contentType = wire.IngestContentType
	}
	for _, i := range b.idx {
		l := tb.lines[i]
		switch {
		case binary:
			body = wire.AppendIngestRecord(body, int64(l.Job), l.Values)
		case slices.ContainsFunc(l.Values, math.IsNaN):
			body = fmt.Appendf(body, "{\"job\":%d,\"values\":NaN}\n", l.Job)
		default:
			line, err := json.Marshal(struct {
				Job    int       `json:"job"`
				Values []float64 `json:"values"`
			}{l.Job, l.Values})
			if err != nil {
				return err
			}
			body = append(append(body, line...), '\n')
		}
	}
	var reply ingestReply
	for {
		resp, err := client.Post(b.url+"/v1/ingest", contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest status %d: %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &reply); err != nil {
			return err
		}
		break
	}

	var want []refusal
	for k, i := range b.idx {
		if msg, ok := tb.refused[i]; ok {
			want = append(want, refusal{Line: k + 1, Error: msg})
		}
	}
	ok := reply.Accepted == len(b.idx)-len(want) && reply.Rejected == len(want) && !reply.Truncated &&
		len(reply.Errors) == len(want)
	for k := 0; ok && k < len(want); k++ {
		spelled := binary || !slices.ContainsFunc(tb.lines[b.idx[want[k].Line-1]].Values, math.IsNaN)
		ok = reply.Errors[k].Line == want[k].Line && (reply.Errors[k].Error == want[k].Error || !spelled)
	}
	if !ok {
		return fmt.Errorf("%s: %d lines: accepted %d, rejected %d (truncated %v), refusals %+v; the reference refused %+v",
			b.url, len(b.idx), reply.Accepted, reply.Rejected, reply.Truncated, reply.Errors, want)
	}
	return nil
}

// readPrediction GETs a prediction; it is nil unless the status is 200.
func readPrediction(client *http.Client, url string) (*stream.Prediction, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	var pr struct {
		Class       int       `json:"class"`
		Probability float64   `json:"probability"`
		Probs       []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, resp.StatusCode, err
	}
	return &stream.Prediction{Class: pr.Class, Probability: pr.Probability, Probs: pr.Probs}, resp.StatusCode, nil
}
