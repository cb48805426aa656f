package server

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/fleet"
	"repro/internal/wire"
)

// The per-sample ingest path is allocation-free in steady state: each
// request borrows one ingestScratch from a pool — a body buffer, a values
// arena every sample's slice aliases, and the fleet.Batch the samples are
// parsed into — and a canonical NDJSON line is decoded by a byte scanner
// instead of encoding/json. The scanner is deliberately narrow: it accepts
// exactly the shape producers emit ({"job":N,"values":[...]}, no
// whitespace, no reordering) and hands anything else to the stdlib decoder,
// so acceptance and per-line error text stay byte-identical to the
// encoding/json path it replaces.

// ingestScratch is one request's pooled parsing state: batch is what the
// worker hands the route's IngestFunc, and lines[i] is the client's NDJSON
// line or binary record index of batch.Samples[i]. It is returned to the
// pool only after the worker has finished the batch (Push copies every
// sample into the job's ring), so aliasing the arena is safe.
type ingestScratch struct {
	body   []byte
	values []float64
	batch  fleet.Batch
	lines  []int
}

var ingestScratchPool = sync.Pool{
	New: func() any { return &ingestScratch{body: make([]byte, 0, 64*1024)} },
}

// readBody reads r to EOF into dst's spare capacity, growing as needed,
// and returns the filled slice.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// isBinaryIngest reports whether an ingest Content-Type selects the binary
// framing; anything else (including absent) reads as NDJSON.
func isBinaryIngest(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == wire.IngestContentType
}

// parseBinary decodes a binary-framed body from sc.body into sc.batch.
// Record-local defects land in the per-line error list under the record's
// index; a framing-fatal defect is returned and rejects the whole batch
// before anything is enqueued, mirroring the NDJSON scanner-error path.
func parseBinary(sc *ingestScratch) ([]LineError, error) {
	dec := wire.NewIngestDecoder(sc.body)
	dec.Arena = sc.values[:0]
	samples, lines := sc.batch.Samples[:0], sc.lines[:0]
	var errs []LineError
	var rec wire.IngestRecord
	for dec.NextInto(&rec) {
		if rec.Err != nil {
			errs = append(errs, LineError{Line: rec.Index, Error: rec.Err.Error()})
			continue
		}
		if rec.Job < 0 {
			errs = append(errs, LineError{Line: rec.Index, Error: `missing or negative "job"`})
			continue
		}
		if len(rec.Values) == 0 {
			errs = append(errs, LineError{Line: rec.Index, Error: `missing or empty "values"`})
			continue
		}
		samples = append(samples, fleet.Sample{Job: int(rec.Job), Values: rec.Values})
		lines = append(lines, rec.Index)
	}
	sc.values, sc.batch.Samples, sc.lines = dec.Arena, samples, lines
	return errs, dec.Err()
}

// parseLines splits sc.body into NDJSON lines exactly as bufio.ScanLines
// would — a final fragment without a newline is still a line, a trailing
// empty fragment is not — and parses each into sc.batch through the fast
// scanner with a stdlib fallback. A line over maxLineBytes returns
// bufio.ErrTooLong as the fatal error, matching the scanner-based path this
// replaces.
func parseLines(sc *ingestScratch) ([]LineError, error) {
	samples, lines := sc.batch.Samples[:0], sc.lines[:0]
	arena := sc.values[:0]
	var errs []LineError
	buf := sc.body
	line := 0
	for off := 0; off < len(buf); {
		var seg []byte
		if nl := bytes.IndexByte(buf[off:], '\n'); nl < 0 {
			seg = buf[off:]
			off = len(buf)
		} else {
			seg = buf[off : off+nl]
			off += nl + 1
		}
		line++
		if len(seg) > maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		raw := bytes.TrimSpace(seg)
		if len(raw) == 0 {
			continue
		}
		sm, grown, ok := parseIngestLineFast(raw, arena)
		arena = grown
		if !ok {
			var errp *LineError
			if sm, errp, ok = parseIngestLine(line, raw); errp != nil {
				errs = append(errs, *errp)
			}
		}
		if ok {
			samples, lines = append(samples, sm), append(lines, line)
		}
	}
	sc.values, sc.batch.Samples, sc.lines = arena, samples, lines
	return errs, nil
}

var (
	ingestLinePrefix = []byte(`{"job":`)
	ingestValuesSep  = []byte(`,"values":[`)
)

// parseIngestLineFast decodes the canonical ingest line shape without
// encoding/json or per-line allocations, appending values to arena (the
// sample's slice aliases it) and returning the grown arena. ok=false means
// the line deviated from the canonical byte shape — whitespace, reordered
// or extra fields, a number JSON or the int job field would reject — and
// the caller must fall back to parseIngestLine, which stays authoritative
// for both acceptance and error text.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func parseIngestLineFast(raw []byte, arena []float64) (fleet.Sample, []float64, bool) {
	if !bytes.HasPrefix(raw, ingestLinePrefix) {
		return fleet.Sample{}, arena, false
	}
	p := len(ingestLinePrefix)
	job, d0 := 0, p
	for p < len(raw) && raw[p] >= '0' && raw[p] <= '9' {
		job = job*10 + int(raw[p]-'0')
		p++
	}
	// No digits, a JSON-invalid leading zero, or enough digits to threaten
	// int64 all defer to the stdlib's verdict.
	if p == d0 || p-d0 > 18 || (raw[d0] == '0' && p-d0 > 1) {
		return fleet.Sample{}, arena, false
	}
	if !bytes.HasPrefix(raw[p:], ingestValuesSep) {
		return fleet.Sample{}, arena, false
	}
	p += len(ingestValuesSep)
	start := len(arena)
	for {
		v, n, ok := parseJSONNumber(raw[p:])
		if !ok {
			return fleet.Sample{}, arena[:start], false
		}
		arena = append(arena, v)
		p += n
		if p >= len(raw) {
			return fleet.Sample{}, arena[:start], false
		}
		if raw[p] == ',' {
			p++
			continue
		}
		if raw[p] == ']' {
			p++
			break
		}
		return fleet.Sample{}, arena[:start], false
	}
	if p != len(raw)-1 || raw[p] != '}' {
		return fleet.Sample{}, arena[:start], false
	}
	return fleet.Sample{Job: job, Values: arena[start:]}, arena, true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseJSONNumber decodes the JSON number (RFC 8259 grammar: no leading
// zeros, no bare '.', no Inf/NaN spellings) at the head of b in one pass,
// returning its value and length; ok=false means b does not start with
// one, or its value is out of float64 range. The scan folds the digits
// into a uint64 mantissa and counts the decimal exponent. When there are
// at most 19 digits (so the mantissa did not wrap), the mantissa is at
// most 2^53 and the exponent at most 22 in magnitude, both operands are
// exact in float64, so one multiply or divide by a power of ten is the
// correctly rounded value: the bits strconv.ParseFloat returns, -0
// included. Any other number falls back to strconv.ParseFloat on the span
// the scan validated, which is the conversion encoding/json performs.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func parseJSONNumber(b []byte) (float64, int, bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) {
		return 0, 0, false
	}
	var mant uint64
	d := i
	switch c := b[i]; {
	case c == '0':
		i++
	case c >= '1' && c <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
	default:
		return 0, 0, false
	}
	digits, exp := i-d, 0
	if i < len(b) && b[i] == '.' {
		i++
		d = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == d {
			return 0, 0, false
		}
		digits += i - d
		exp = d - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // past any float64 exponent; the fallback reads the rest
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == d {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if digits <= 19 && mant <= 1<<53 && exp >= -22 && exp <= 22 {
		v := float64(mant)
		if neg {
			v = -v
		}
		if exp < 0 {
			return v / exactPow10[-exp], i, true
		}
		return v * exactPow10[exp], i, true
	}
	// A range error (1e999) declines, so the stdlib's rejection is what the
	// client sees.
	v, err := strconv.ParseFloat(bytesString(b[:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, i, true
}

// bytesString views b as a string without copying; the result must not
// outlive b, which holds here — it only feeds strconv.ParseFloat.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
