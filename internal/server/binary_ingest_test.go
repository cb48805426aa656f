package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/wire"
)

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

	// Next and NextInto, the form parseBinary takes with one record kept
	// across the loop, must decode the same records and rejections.
	var kept wire.IngestRecord
	for _, form := range []struct {
		name string
		next func(*wire.IngestDecoder) (wire.IngestRecord, bool)
	}{
		{"Next", (*wire.IngestDecoder).Next},
		{"NextInto", func(d *wire.IngestDecoder) (wire.IngestRecord, bool) { ok := d.NextInto(&kept); return kept, ok }},
	} {
		dec := wire.NewIngestDecoder(body)
		for i, w := range want {
			got, ok := form.next(dec)
			if !ok {
				t.Fatalf("%s: decoder ended at record %d of %d: %v", form.name, i+1, len(want), dec.Err())
			}
			if got.Index != i+1 {
				t.Fatalf("%s: record %d decoded with index %d", form.name, i+1, got.Index)
			}
			if w.errPart != "" {
				if got.Err == nil || !strings.Contains(got.Err.Error(), w.errPart) {
					t.Fatalf("%s: record %d: error %v, want substring %q", form.name, i+1, got.Err, w.errPart)
				}
				continue
			}
			if got.Err != nil {
				t.Fatalf("%s: record %d: unexpected error %v", form.name, i+1, got.Err)
			}
			if got.Job != w.job {
				t.Fatalf("%s: record %d: job %d, want %d", form.name, i+1, got.Job, w.job)
			}
			if len(got.Values) != len(w.bits) {
				t.Fatalf("%s: record %d: %d values, want %d", form.name, i+1, len(got.Values), len(w.bits))
			}
			for k, bits := range w.bits {
				if g := math.Float64bits(got.Values[k]); g != bits {
					t.Fatalf("%s: record %d value %d: bits %#x, want %#x", form.name, i+1, k, g, bits)
				}
			}
		}
		if _, ok := form.next(dec); ok {
			t.Fatalf("%s: decoder produced records beyond the golden capture", form.name)
		}
		if err := dec.Err(); err != nil {
			t.Fatalf("%s: clean capture ended with framing error: %v", form.name, err)
		}
	}

	// Through the handler: records 1 and 2 land (width matches the fixture
	// fleet); 3, 5, 6 are framing-local rejects; 7 (negative job) and 8 (no
	// values) are contract rejects; 4 (NaN) and 9 (1e308) die at the
	// fleet's sanity gate. Accounting must say exactly that.
	_, _, ts := newTestServer(t, nil, nil)
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
	_, m, ts := newTestServer(t, nil, nil)
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
	_, m, ts := newTestServer(t, nil, nil)
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
