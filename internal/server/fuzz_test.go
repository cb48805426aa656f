package server

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/wire"
)

// FuzzParseIngestLine fuzzes the NDJSON line parser with hostile input:
// malformed JSON, JSON's unparseable NaN/Inf spellings, out-of-range
// numbers, wrong field types, deep nesting and binary garbage. The
// contract: never panic, never accept a sample without a valid job ID and
// non-empty values, and report blank-vs-error consistently.
func FuzzParseIngestLine(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"job":1,"values":[1,2,3]}`,
		`{"job":-4,"values":[1]}`,
		`{"job":null,"values":[1]}`,
		`{"job":1,"values":[]}`,
		`{"job":1,"values":[NaN]}`,
		`{"job":1,"values":[Infinity,-Infinity]}`,
		`{"job":1,"values":[1e999]}`,
		`{"job":1,"values":[1e308,-1e308]}`,
		`{"job":18446744073709551616,"values":[1]}`,
		`{"job":"7","values":[1]}`,
		`{"job":1,"values":"nope"}`,
		`{"job":1,"values":[{"a":1}]}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"job":1,"values":[1,2,3]`,
		"\x00\x01\x02\xff",
		strings.Repeat(`{"job":1,`, 1000),
		`{"values":[0.1,0.2],"job":3,"extra":{"nested":[1,[2,[3]]]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		trimmed := bytes.TrimSpace(raw)
		sm, errp, ok := parseIngestLine(1, trimmed)
		switch {
		case ok:
			if errp != nil {
				t.Fatalf("accepted line also reported an error: %v", errp)
			}
			if sm.job < 0 {
				t.Fatalf("accepted negative job %d", sm.job)
			}
			if len(sm.values) == 0 {
				t.Fatal("accepted a sample with no values")
			}
			// encoding/json cannot produce NaN/Inf — pin that assumption,
			// since the fleet's sanity gate is the only other line of
			// defence before the covariance sums.
			for _, v := range sm.values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("parser let a non-finite value through: %v", v)
				}
			}
		case len(trimmed) == 0:
			if errp != nil {
				t.Fatalf("blank line reported an error: %v", errp)
			}
		default:
			if errp == nil {
				t.Fatal("rejected line carries no error")
			}
			if errp.Line != 1 || errp.Error == "" {
				t.Fatalf("malformed line error: %+v", errp)
			}
		}
	})
}

// FuzzParseIngestLineFast is the differential contract of the
// zero-allocation scanner: on any input it must never panic, and whenever
// it accepts a line, encoding/json (parseIngestLine) must also accept it
// with the same job and bit-identical values — the fast path may only ever
// decline and fall back, never disagree.
func FuzzParseIngestLineFast(f *testing.F) {
	seeds := []string{
		`{"job":1,"values":[1,2,3]}`,
		`{"job":0,"values":[0.5]}`,
		`{"job":17,"values":[-1.25e-3,2E+4,0.0]}`,
		`{"job":1, "values":[1]}`,
		`{"job":01,"values":[1]}`,
		`{"job":-1,"values":[1]}`,
		`{"job":1,"values":[01]}`,
		`{"job":1,"values":[1.]}`,
		`{"job":1,"values":[.5]}`,
		`{"job":1,"values":[+5]}`,
		`{"job":1,"values":[0x1p3]}`,
		`{"job":1,"values":[1e999]}`,
		`{"job":1,"values":[5e-324,-0.0,1e308]}`,
		`{"job":999999999999999999,"values":[1]}`,
		`{"job":9999999999999999999,"values":[1]}`,
		`{"job":1,"values":[]}`,
		`{"job":1,"values":[1],"x":2}`,
		`{"values":[1],"job":1}`,
		`{"job":1,"values":[1]}{"job":2,"values":[2]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			return
		}
		sm, _, ok := parseIngestLineFast(1, trimmed, nil)
		if !ok {
			return
		}
		want, errp, wok := parseIngestLine(1, trimmed)
		if !wok {
			t.Fatalf("fast path accepted %q, stdlib rejected it: %v", trimmed, errp)
		}
		if sm.job != want.job {
			t.Fatalf("%q: fast job %d, stdlib job %d", trimmed, sm.job, want.job)
		}
		if len(sm.values) != len(want.values) {
			t.Fatalf("%q: fast %d values, stdlib %d", trimmed, len(sm.values), len(want.values))
		}
		for i := range sm.values {
			if math.Float64bits(sm.values[i]) != math.Float64bits(want.values[i]) {
				t.Fatalf("%q value %d: fast %v, stdlib %v", trimmed, i, sm.values[i], want.values[i])
			}
		}
	})
}

// FuzzBinaryIngestFrame fuzzes the binary framing end to end over a real
// handler: arbitrary bodies — truncations, oversized or lying length
// prefixes, zero-length frames, float garbage — must produce a well-formed
// 200/400/413, never a panic, and never a sample the sanity gates would
// reject (non-finite values die at the fleet, misframed records die at the
// decoder).
func FuzzBinaryIngestFrame(f *testing.F) {
	valid := wire.AppendIngestRecord(nil, 1, []float64{1, 2, 3})
	valid = wire.AppendIngestRecord(valid, 2, []float64{4, 5, 6})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{1, 0, 0})
	f.Add(wire.AppendIngestRecord(nil, -9, nil))
	f.Add(append(wire.AppendIngestRecord(nil, 3, []float64{math.Inf(1), math.NaN(), -0.0}), 0xde, 0xad))

	scaler, model := fixture(f)
	m, err := shard.New(shard.Config{Shards: 1, Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Monitor: m, TickEvery: time.Hour, maxBodyBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.IngestContentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case 200, 400, 413:
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	})
}

// FuzzIngestHTTP fuzzes the whole ingest path over a real handler: any
// body — including oversized lines and batches mixing valid and hostile
// samples — must produce a well-formed HTTP response, never a panic, and
// never poison the valid samples' jobs.
func FuzzIngestHTTP(f *testing.F) {
	f.Add([]byte(`{"job":1,"values":[1,2,3]}` + "\n" + `{"job":2,"values":[4,5,6]}`))
	f.Add([]byte(`{"job":1,"values":[1e308,2,3]}`))
	f.Add([]byte("{\"job\":1,\"values\":[1,2,3]}\n\xde\xad\xbe\xef\n{\"job\":2,\"values\":[4,5,6]}"))
	f.Add(bytes.Repeat([]byte("x"), 4096))
	f.Add([]byte(`{"job":1,"values":[` + strings.Repeat("1,", 5000) + `1]}`))

	scaler, model := fixture(f)
	m, err := shard.New(shard.Config{Shards: 1, Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Monitor: m, TickEvery: time.Hour, maxBodyBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case 200, 400, 413:
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	})
}
