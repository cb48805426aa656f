package server

import (
	"fmt"
	"testing"
)

// TestParseIngestLineFastZeroAlloc pins the //wcc:hotpath contract on the
// NDJSON fast path: parsing a canonical line into a pre-grown arena
// allocates nothing. The first call may grow the arena; the measured
// calls reuse its capacity, which is exactly the steady state the pooled
// ingestScratch provides in serving.
func TestParseIngestLineFastZeroAlloc(t *testing.T) {
	raw := []byte(`{"job":42,"values":[1.5,2,32.5,-4,0.125,9e2,-0.5]}`)
	arena := make([]float64, 0, 64)

	sm, grown, ok := parseIngestLineFast(raw, arena[:0])
	if !ok || sm.Job != 42 || len(sm.Values) != 7 {
		t.Fatalf("fast path rejected canonical line: ok=%v req=%+v", ok, sm)
	}
	arena = grown[:0]

	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		_, grown, ok := parseIngestLineFast(raw, arena)
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

// TestParseBodyZeroAlloc pins that a whole request body parses into a warmed
// ingestScratch without allocating: a 1 024-line canonical NDJSON body and
// the same samples in binary framing, parsed again and again into one
// scratch, reuse its values arena, batch.Samples and lines. Every pass must
// also name sample i by the client's line i+1.
func TestParseBodyZeroAlloc(t *testing.T) {
	jobs, samples := parseBenchSamples(t)
	for _, c := range []struct {
		name  string
		body  []byte
		parse func(*ingestScratch) ([]LineError, error)
	}{
		{"ndjson", ndjsonBody(jobs, samples, dcgmValue), parseLines},
		{"binary", binaryBody(jobs, samples), parseBinary},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := &ingestScratch{body: c.body}
			bad := ""
			parse := func() {
				errs, err := c.parse(sc)
				if err != nil || len(errs) != 0 || len(sc.batch.Samples) != parseBenchLines || len(sc.lines) != parseBenchLines {
					bad = fmt.Sprintf("parsed %d samples and %d lines, %d line errors, err %v", len(sc.batch.Samples), len(sc.lines), len(errs), err)
					return
				}
				for i, sm := range sc.batch.Samples {
					if sm.Job != jobs[i] || len(sm.Values) != len(samples[i]) || sc.lines[i] != i+1 {
						bad = fmt.Sprintf("sample %d: job %d, %d values, line %d", i, sm.Job, len(sm.Values), sc.lines[i])
						return
					}
				}
			}
			parse() // warm: the arena, batch and lines grow to the body once
			allocs := testing.AllocsPerRun(50, parse)
			if bad != "" {
				t.Fatal(bad)
			}
			if allocs != 0 {
				t.Fatalf("parsing a %d-sample body allocates %.1f times per call, want 0", parseBenchLines, allocs)
			}
		})
	}
}
