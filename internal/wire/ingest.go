package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary ingest framing: the compact alternative to NDJSON on
// POST /v1/ingest, selected by Content-Type. A body is a sequence of
// length-prefixed records, each one sample:
//
//	u32  payload length L (little-endian), counting only the bytes after
//	     the prefix; a well-formed record has L = 10 + 8·n
//	i64  job id (little-endian)
//	u16  value count n (little-endian)
//	n×f64  sensor values as IEEE-754 bits (little-endian)
//
// Floats travel as raw bits, so a decoded sample is bit-identical to what
// the producer held — including NaN and ±Inf payloads, which the fleet's
// sanity gate then rejects per record exactly as it does per NDJSON line.
//
// Error handling mirrors the NDJSON contract: a record-local defect (a
// zero-length frame, a payload too short for its header, a length that
// disagrees with the declared value count) rejects that record and
// decoding continues at the next prefix, because the prefix still says
// where that is. A defect that breaks framing itself — a truncated prefix
// or payload, or a length prefix beyond MaxIngestFramePayload — is fatal:
// every later byte boundary is untrustworthy, so the decoder stops and the
// caller rejects the whole batch, just as a too-long NDJSON line does.

const (
	// IngestContentType selects the binary framing on POST /v1/ingest.
	IngestContentType = "application/x-wcc-ingest"
	// MaxIngestFramePayload caps one record's payload, mirroring the
	// serving layer's NDJSON line cap; larger prefixes are treated as
	// corruption, not ambition.
	MaxIngestFramePayload = 1 << 20
	// MaxIngestValues is the widest sample one record can carry, fixed by
	// the u16 count field.
	MaxIngestValues = 1<<16 - 1

	// ingestHeaderBytes is the fixed payload prefix: i64 job + u16 count.
	ingestHeaderBytes = 10
)

// IngestRecordSize is the framed size of a record carrying n values: the
// bytes AppendIngestRecord appends for it.
func IngestRecordSize(n int) int { return 4 + ingestHeaderBytes + 8*n }

// AppendIngestRecord appends one framed sample to dst and returns the
// extended slice. It panics if values exceeds MaxIngestValues — a producer
// bug, not a wire condition.
func AppendIngestRecord(dst []byte, job int64, values []float64) []byte {
	if len(values) > MaxIngestValues {
		panic(fmt.Sprintf("wire: %d values exceed the u16 record limit %d", len(values), MaxIngestValues))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ingestHeaderBytes+8*len(values)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(job))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(values)))
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// IngestRecord is one decoded record. Err non-nil means the record was
// rejected but framing survived; Values aliases the decoder's Arena.
type IngestRecord struct {
	// Index is the record's 1-based position in the stream, the binary
	// analogue of an NDJSON line number.
	Index  int
	Job    int64
	Values []float64
	Err    error
}

// IngestDecoder iterates the records of one binary ingest body without
// allocating per record: decoded values are appended to Arena, which a
// caller may preset from a pool to amortise across requests.
type IngestDecoder struct {
	// Arena receives every decoded value; each record's Values slice
	// aliases its tail. Growth may reallocate, but earlier records keep
	// their (still-valid) backing.
	Arena []float64

	buf   []byte
	off   int
	idx   int
	fatal error
}

// NewIngestDecoder decodes records from one complete request body.
func NewIngestDecoder(buf []byte) *IngestDecoder { return &IngestDecoder{buf: buf} }

// Next returns the next record. ok=false means iteration is over: either
// the body was consumed cleanly or framing broke — check Err. A returned
// record with a non-nil Err was rejected record-locally; iteration
// continues.
func (d *IngestDecoder) Next() (IngestRecord, bool) {
	var rec IngestRecord
	ok := d.NextInto(&rec)
	return rec, ok
}

// NextInto is Next writing the record into rec, which it overwrites whole
// when it returns true.
// A loop that keeps one record across its iterations takes it: a record is
// too large to live in registers, and copying Next's result into the
// caller's variable reads 16 bytes over 8-byte stores, which the processor
// cannot forward (about a quarter of parseBinary's time).
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (d *IngestDecoder) NextInto(rec *IngestRecord) bool {
	if d.fatal != nil || d.off >= len(d.buf) {
		return false
	}
	if len(d.buf)-d.off < 4 {
		d.fatal = fmt.Errorf("truncated length prefix after record %d (%d trailing bytes)", d.idx, len(d.buf)-d.off)
		return false
	}
	n := int(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	d.idx++
	if n == 0 {
		*rec = IngestRecord{Index: d.idx, Err: errors.New("zero-length frame")}
		return true
	}
	if n > MaxIngestFramePayload {
		d.fatal = fmt.Errorf("record %d declares a %d-byte payload, over the %d-byte cap", d.idx, n, MaxIngestFramePayload)
		return false
	}
	if len(d.buf)-d.off < n {
		d.fatal = fmt.Errorf("truncated frame: record %d declares %d payload bytes, %d remain", d.idx, n, len(d.buf)-d.off)
		return false
	}
	payload := d.buf[d.off : d.off+n]
	d.off += n
	if n < ingestHeaderBytes {
		*rec = IngestRecord{Index: d.idx, Err: fmt.Errorf("frame payload is %d bytes, shorter than the %d-byte header", n, ingestHeaderBytes)}
		return true
	}
	count := int(binary.LittleEndian.Uint16(payload[8:]))
	if n != ingestHeaderBytes+8*count {
		*rec = IngestRecord{Index: d.idx, Err: fmt.Errorf("frame payload is %d bytes but declares %d values (want %d bytes)", n, count, ingestHeaderBytes+8*count)}
		return true
	}
	// The arena grows once per record, not once per value.
	start := len(d.Arena)
	d.Arena = slices.Grow(d.Arena, count)[:start+count]
	values, raw := d.Arena[start:], payload[ingestHeaderBytes:]
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	// Field by field: a composite literal is built on the stack and copied
	// in 16-byte moves, the stall NextInto exists to avoid.
	rec.Index, rec.Job, rec.Values, rec.Err = d.idx, int64(binary.LittleEndian.Uint64(payload)), values, nil
	return true
}

// Err returns the fatal framing error that ended iteration, or nil after a
// clean end of body.
func (d *IngestDecoder) Err() error { return d.fatal }
