// Package wire provides the little-endian binary primitives shared by the
// model serialization codecs (internal/tree, forest, xgb, preprocess, drift),
// the cluster's peer framing and the artifact container (internal/artifact).
//
// Writer and Reader are error-sticky: after the first failure every further
// call is a no-op, so codecs can encode a whole structure and check the
// error once at the end. The Reader is written for hostile input — every
// length prefix is bounds-checked, and what is allocated for it follows the
// bytes that actually arrive (ReadFull), so a truncated or corrupted stream
// produces a descriptive error, never a panic or an allocation far beyond
// the input's own size.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
)

// maxElems caps the element count of any length-prefixed slice (floats,
// ints, bytes of a string). 1<<27 float64s is a gigabyte — far beyond any
// real model section — so larger prefixes are treated as corruption.
const maxElems = 1 << 27

// Writer serialises primitives to an io.Writer, remembering the first error.
type Writer struct {
	w   io.Writer
	buf [8]byte
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// U16 writes a uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.write([]byte(s))
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p)
}

// F64s writes a length-prefixed float64 slice.
func (w *Writer) F64s(vs []float64) {
	w.U64(uint64(len(vs)))
	if w.err != nil || len(vs) == 0 {
		return
	}
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	w.write(buf)
}

// Matrix writes a dense matrix (rows, cols, row-major data). m must be
// non-nil; codecs reject unfitted models before getting here.
func (w *Writer) Matrix(m *mat.Matrix) {
	if w.err == nil && m == nil {
		w.err = errors.New("wire: nil matrix")
		return
	}
	w.Int(m.Rows)
	w.Int(m.Cols)
	w.F64s(m.Data)
}

// Reader deserialises primitives from an io.Reader, remembering the first
// error. Short reads surface as io.ErrUnexpectedEOF wrapped with context.
type Reader struct {
	r   io.Reader
	buf [8]byte
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first read error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err (if the reader has not already failed) so codecs can
// surface validation errors through the same sticky-error channel.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("wire: truncated input: %w", err)
		return false
	}
	return true
}

// readN reads the n bytes a length prefix announced.
func (r *Reader) readN(n int) []byte {
	if r.err != nil {
		return nil
	}
	buf, err := ReadFull(r.r, n)
	if err != nil {
		r.err = fmt.Errorf("wire: truncated input: %w", err)
		return nil
	}
	return buf
}

// allocStep is the most ReadFull allocates before any byte has arrived.
const allocStep = 64 << 10

// ReadFull reads exactly n bytes from r into a new slice, for an n that came
// from the input itself (a length prefix, a section table). The slice starts
// at allocStep and doubles only once everything allocated so far has been
// filled, so whatever n claims, no allocation is longer than twice the bytes
// that have arrived (allocStep at the start). A short stream is
// io.ErrUnexpectedEOF.
func ReadFull(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, allocStep))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		filled = len(buf)
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	if !r.read(r.buf[:2]) {
		return 0
	}
	return binary.LittleEndian.Uint16(r.buf[:2])
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads one byte as a bool; any value other than 0 or 1 is corruption.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(errors.New("wire: corrupt bool"))
		return false
	}
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// sliceLen validates a length prefix before anything is read for it.
func (r *Reader) sliceLen(what string) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > maxElems {
		r.Fail(fmt.Errorf("wire: %s length %d exceeds sanity limit", what, n))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen("string")
	if r.err != nil || n == 0 {
		return ""
	}
	return string(r.readN(n))
}

// Bytes reads a length-prefixed byte slice. The same sanity cap as every
// other length prefix applies.
func (r *Reader) Bytes() []byte {
	n := r.sliceLen("byte slice")
	if r.err != nil || n == 0 {
		return nil
	}
	return r.readN(n)
}

// F64s reads a length-prefixed float64 slice.
func (r *Reader) F64s() []float64 {
	n := r.sliceLen("float slice")
	if r.err != nil || n == 0 {
		return nil
	}
	buf := r.readN(8 * n)
	if buf == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// Matrix reads a dense matrix, validating that the data length matches the
// declared shape.
func (r *Reader) Matrix() *mat.Matrix {
	rows := r.Int()
	cols := r.Int()
	data := r.F64s()
	if r.err != nil {
		return nil
	}
	// Cap the dimensions before multiplying: 2^32×2^32 would overflow the
	// product to 0 and slip past the length check below.
	if rows < 0 || cols < 0 || rows > maxElems || cols > maxElems {
		r.Fail(fmt.Errorf("wire: corrupt matrix shape %dx%d", rows, cols))
		return nil
	}
	if len(data) != rows*cols {
		r.Fail(fmt.Errorf("wire: corrupt matrix: %d values for shape %dx%d", len(data), rows, cols))
		return nil
	}
	m, err := mat.FromSlice(rows, cols, data)
	if err != nil {
		r.Fail(err)
		return nil
	}
	return m
}
