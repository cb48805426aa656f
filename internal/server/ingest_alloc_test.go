package server

import "testing"

// TestParseIngestLineFastZeroAlloc pins the //wcc:hotpath contract on the
// NDJSON fast path: parsing a canonical line into a pre-grown arena
// allocates nothing. The first call may grow the arena; the measured
// calls reuse its capacity, which is exactly the steady state the pooled
// ingestScratch provides in serving.
func TestParseIngestLineFastZeroAlloc(t *testing.T) {
	raw := []byte(`{"job":42,"values":[1.5,2,32.5,-4,0.125,9e2,-0.5]}`)
	arena := make([]float64, 0, 64)

	sm, grown, ok := parseIngestLineFast(1, raw, arena[:0])
	if !ok || sm.Job != 42 || len(sm.Values) != 7 {
		t.Fatalf("fast path rejected canonical line: ok=%v req=%+v", ok, sm)
	}
	arena = grown[:0]

	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		_, grown, ok := parseIngestLineFast(1, raw, arena)
		if !ok || len(grown) != 7 {
			bad = true
		}
	})
	if bad {
		t.Fatal("fast path rejected the canonical line during measurement")
	}
	if allocs != 0 {
		t.Fatalf("parseIngestLineFast allocates %.1f times per call, want 0", allocs)
	}
}

// TestParseJSONNumberZeroAlloc pins the //wcc:hotpath contract on the
// number decoder, on both its exact path and its strconv fallback.
func TestParseJSONNumberZeroAlloc(t *testing.T) {
	nums := [][]byte{[]byte("163.55,"), []byte("-21847]"), []byte("0.30000000000000004,"), []byte("1e23]")}
	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		for _, b := range nums {
			if _, n, ok := parseJSONNumber(b); !ok || n != len(b)-1 {
				bad = true
			}
		}
	})
	if bad {
		t.Fatal("parseJSONNumber rejected a valid number during measurement")
	}
	if allocs != 0 {
		t.Fatalf("parseJSONNumber allocates %.1f times per call, want 0", allocs)
	}
}
