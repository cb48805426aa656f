package wire

import "testing"

// TestIngestDecoderZeroAlloc pins the //wcc:hotpath contract on the
// binary frame decoder: iterating a whole body with a pre-grown arena
// allocates nothing — not per record and not per body. The decoder is
// constructed by value on the stack, matching how parseBinary borrows a
// pooled arena per request.
func TestIngestDecoderZeroAlloc(t *testing.T) {
	vals := []float64{1, 2.5, -3, 0.125, 9e9, -0.25, 7}
	var body []byte
	const records = 16
	for i := 0; i < records; i++ {
		body = AppendIngestRecord(body, int64(i), vals)
	}
	arena := make([]float64, 0, records*len(vals))

	bad := false
	allocs := testing.AllocsPerRun(100, func() {
		dec := IngestDecoder{Arena: arena[:0], buf: body}
		n := 0
		var rec IngestRecord
		for dec.NextInto(&rec) {
			if rec.Err != nil || len(rec.Values) != len(vals) {
				bad = true
			}
			n++
		}
		if n != records || dec.Err() != nil {
			bad = true
		}
	})
	if bad {
		t.Fatal("decoder rejected the well-formed body during measurement")
	}
	if allocs != 0 {
		t.Fatalf("IngestDecoder.NextInto allocates %.1f times per body, want 0", allocs)
	}
}
