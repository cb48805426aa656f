package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/wire"
)

// binaryTestServer starts a served fixture fleet whose ticks only happen on
// Close, so tests control exactly when windows are classified.
func binaryTestServer(t *testing.T) (*Server, *shard.Core, *httptest.Server) {
	t.Helper()
	scaler, model := fixture(t)
	m, err := shard.New(shard.Config{Shards: 1, Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Monitor: m, TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, m, ts
}

func postIngest(t *testing.T, url, contentType string, body []byte) (int, ingestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ir
}

// TestBinaryIngestMatchesNDJSON is the framing equivalence invariant:
// replaying the same samples through NDJSON and through binary frames must
// leave two fleets with bit-identical predictions for every job, and
// identical accept/reject accounting on the way in. json.Marshal emits the
// shortest round-tripping decimal for a float64, so both framings deliver
// the same bits to the fleet.
func TestBinaryIngestMatchesNDJSON(t *testing.T) {
	const jobs, perJob = 4, testWindow + 3
	srvA, _, tsA := binaryTestServer(t) // NDJSON
	srvB, _, tsB := binaryTestServer(t) // binary

	var ndjson bytes.Buffer
	var bin []byte
	for i := 0; i < perJob; i++ {
		for j := 0; j < jobs; j++ {
			vals := jobSamples(j, perJob)[i]
			line, err := json.Marshal(struct {
				Job    int       `json:"job"`
				Values []float64 `json:"values"`
			}{j, vals})
			if err != nil {
				t.Fatal(err)
			}
			ndjson.Write(line)
			ndjson.WriteByte('\n')
			bin = wire.AppendIngestRecord(bin, int64(j), vals)
		}
	}

	code, ir := postIngest(t, tsA.URL, "application/x-ndjson", ndjson.Bytes())
	if code != http.StatusOK || ir.Accepted != jobs*perJob || ir.Rejected != 0 {
		t.Fatalf("NDJSON ingest: status %d, accounting %+v", code, ir)
	}
	code, ir = postIngest(t, tsB.URL, wire.IngestContentType, bin)
	if code != http.StatusOK || ir.Accepted != jobs*perJob || ir.Rejected != 0 {
		t.Fatalf("binary ingest: status %d, accounting %+v", code, ir)
	}

	// Close flushes the pending windows through one final tick each.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}

	for j := 0; j < jobs; j++ {
		var preds [2]predictionResponse
		for i, ts := range []*httptest.Server{tsA, tsB} {
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/prediction", ts.URL, j))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job %d via server %d: status %d", j, i, resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&preds[i]); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		a, b := preds[0], preds[1]
		if a.Class != b.Class || math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
			t.Fatalf("job %d: NDJSON (%d, %v) vs binary (%d, %v)", j, a.Class, a.Probability, b.Class, b.Probability)
		}
		if len(a.Probs) != len(b.Probs) {
			t.Fatalf("job %d: probs width %d vs %d", j, len(a.Probs), len(b.Probs))
		}
		for k := range a.Probs {
			if math.Float64bits(a.Probs[k]) != math.Float64bits(b.Probs[k]) {
				t.Fatalf("job %d class %d: NDJSON %v vs binary %v", j, k, a.Probs[k], b.Probs[k])
			}
		}
	}
}

// TestGoldenBinaryIngestCapture pins the committed binary capture
// byte-for-byte: the fixture's exact size, every decoded record's job and
// value bits, every record-local rejection, and the accounting the HTTP
// handler produces from it. Regenerate with
// `go run internal/server/testdata/gen_ingest_golden.go` — and if this
// test then fails, the framing changed and needs a version bump, not a
// golden refresh.
func TestGoldenBinaryIngestCapture(t *testing.T) {
	body, err := os.ReadFile("testdata/ingest_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 223 {
		t.Fatalf("golden capture is %d bytes, want 223", len(body))
	}

	type rec struct {
		job     int64
		bits    []uint64
		errPart string // non-empty: record must be rejected with this substring
	}
	want := []rec{
		{job: 7, bits: []uint64{0x3ff8000000000000, 0xc002000000000000, 0x4009000000000000}},
		{job: 0, bits: []uint64{
			math.Float64bits(0.1), math.Float64bits(0.2), math.Float64bits(0.3),
		}},
		{errPart: "zero-length frame"},
		{job: 42, bits: []uint64{0x7ff8000000000001, 0x7ff0000000000000, 0xfff0000000000000}},
		{errPart: "shorter than the 10-byte header"},
		{errPart: "declares 5 values"},
		{job: -3, bits: []uint64{0x3ff0000000000000}},
		{job: 9, bits: nil},
		{job: 1000000, bits: []uint64{0x1, 0x8000000000000000, math.Float64bits(1e308)}},
	}

	dec := wire.NewIngestDecoder(body)
	for i, w := range want {
		got, ok := dec.Next()
		if !ok {
			t.Fatalf("decoder ended at record %d of %d: %v", i+1, len(want), dec.Err())
		}
		if got.Index != i+1 {
			t.Fatalf("record %d decoded with index %d", i+1, got.Index)
		}
		if w.errPart != "" {
			if got.Err == nil || !strings.Contains(got.Err.Error(), w.errPart) {
				t.Fatalf("record %d: error %v, want substring %q", i+1, got.Err, w.errPart)
			}
			continue
		}
		if got.Err != nil {
			t.Fatalf("record %d: unexpected error %v", i+1, got.Err)
		}
		if got.Job != w.job {
			t.Fatalf("record %d: job %d, want %d", i+1, got.Job, w.job)
		}
		if len(got.Values) != len(w.bits) {
			t.Fatalf("record %d: %d values, want %d", i+1, len(got.Values), len(w.bits))
		}
		for k, bits := range w.bits {
			if g := math.Float64bits(got.Values[k]); g != bits {
				t.Fatalf("record %d value %d: bits %#x, want %#x", i+1, k, g, bits)
			}
		}
	}
	if _, ok := dec.Next(); ok {
		t.Fatal("decoder produced records beyond the golden capture")
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("clean capture ended with framing error: %v", err)
	}

	// Through the handler: records 1 and 2 land (width matches the fixture
	// fleet); 3, 5, 6 are framing-local rejects; 7 (negative job) and 8 (no
	// values) are contract rejects; 4 (NaN) and 9 (1e308) die at the
	// fleet's sanity gate. Accounting must say exactly that.
	_, _, ts := binaryTestServer(t)
	code, ir := postIngest(t, ts.URL, wire.IngestContentType, body)
	if code != http.StatusOK {
		t.Fatalf("golden POST: status %d", code)
	}
	if ir.Accepted != 2 || ir.Rejected != 7 {
		t.Fatalf("golden accounting: %+v", ir)
	}
	var lines []int
	for _, le := range ir.Errors {
		lines = append(lines, le.Line)
	}
	if fmt.Sprint(lines) != "[3 4 5 6 7 8 9]" {
		t.Fatalf("rejected records %v, want [3 4 5 6 7 8 9]", lines)
	}
}

// TestBinaryIngestTruncation cuts a clean three-record body at every byte:
// a cut on a record boundary is a clean end of body (200, the complete
// prefix accepted), and a cut anywhere else breaks framing (400, nothing
// enqueued). No cut may panic or poison the batch with misframed samples.
func TestBinaryIngestTruncation(t *testing.T) {
	_, m, ts := binaryTestServer(t)
	var body []byte
	boundaries := map[int]int{0: 0} // byte offset -> complete records
	for r := 1; r <= 3; r++ {
		body = wire.AppendIngestRecord(body, int64(r), []float64{1, 2, 3})
		boundaries[len(body)] = r
	}
	for cut := 0; cut <= len(body); cut++ {
		code, ir := postIngest(t, ts.URL, wire.IngestContentType, body[:cut])
		if recs, ok := boundaries[cut]; ok {
			if code != http.StatusOK || ir.Accepted != recs || ir.Rejected != 0 {
				t.Fatalf("cut %d (boundary): status %d, accounting %+v", cut, code, ir)
			}
		} else if code != http.StatusBadRequest {
			t.Fatalf("cut %d (mid-record): status %d, want 400", cut, code)
		}
	}
	// The four boundary posts accepted 0, 1, 2 and 3 records; every other
	// cut enqueued nothing. The fleet must have seen exactly those 6
	// samples and no misframed fragment more.
	if got := m.SamplesIngested(); got != 6 {
		t.Fatalf("fleet ingested %d samples across truncations, want 6", got)
	}
}

// TestBinaryIngestOversizedPrefix pins the fatal path for a length prefix
// beyond the frame cap: the whole batch is rejected up front, even though
// a valid record precedes it.
func TestBinaryIngestOversizedPrefix(t *testing.T) {
	_, m, ts := binaryTestServer(t)
	body := wire.AppendIngestRecord(nil, 1, []float64{1, 2, 3})
	body = binary.LittleEndian.AppendUint32(body, wire.MaxIngestFramePayload+1)
	body = append(body, 0x01, 0x02)
	code, _ := postIngest(t, ts.URL, wire.IngestContentType, body)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized prefix: status %d, want 400", code)
	}
	if got := m.SamplesIngested(); got != 0 {
		t.Fatalf("fatal framing error still ingested %d samples", got)
	}
}
