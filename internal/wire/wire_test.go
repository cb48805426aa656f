package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(7)
	w.U16(65000)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.String("hello, wcc")
	w.String("")
	w.F64s(nil)
	w.F64s([]float64{1.5, -2.25, 0})
	m := mat.New(2, 3)
	for i := range m.Data {
		m.Data[i] = float64(i) * 1.25
	}
	w.Matrix(m)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U16(); got != 65000 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.String(); got != "hello, wcc" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := r.F64s(); len(got) != 0 {
		t.Errorf("empty F64s = %v", got)
	}
	wantF := []float64{1.5, -2.25, 0}
	gotF := r.F64s()
	if len(gotF) != len(wantF) {
		t.Fatalf("F64s = %v", gotF)
	}
	for i := range wantF {
		if gotF[i] != wantF[i] {
			t.Errorf("F64s[%d] = %v", i, gotF[i])
		}
	}
	gm := r.Matrix()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if gm.Rows != 2 || gm.Cols != 3 {
		t.Fatalf("matrix shape %dx%d", gm.Rows, gm.Cols)
	}
	for i := range m.Data {
		if gm.Data[i] != m.Data[i] {
			t.Errorf("matrix[%d] = %v", i, gm.Data[i])
		}
	}
}

func TestNaNBitPatternPreserved(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payload := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with payload
	w.F64(payload)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if got := math.Float64bits(r.F64()); got != 0x7ff8_0000_dead_beef {
		t.Errorf("NaN payload = %#x", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedReads(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F64s([]float64{1, 2, 3})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		r.F64s()
		if r.Err() == nil {
			t.Fatalf("cut at %d: expected error", cut)
		}
	}
}

func TestInsaneLengthRejected(t *testing.T) {
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], 1<<50)
	r := NewReader(bytes.NewReader(raw[:]))
	r.F64s()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "sanity limit") {
		t.Fatalf("err = %v", err)
	}
}

// TestUnbackedLengthAllocatesLittle: a length prefix inside the sanity limit
// that the stream does not back costs what the stream holds, not what the
// prefix claims (8 GiB for a float slice at the limit).
func TestUnbackedLengthAllocatesLittle(t *testing.T) {
	raw := make([]byte, 8+100)
	binary.LittleEndian.PutUint64(raw, maxElems)
	for name, read := range map[string]func(*Reader){
		"F64s":   func(r *Reader) { r.F64s() },
		"Bytes":  func(r *Reader) { r.Bytes() },
		"String": func(r *Reader) { _ = r.String() },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(raw))
		read(r)
		runtime.ReadMemStats(&after)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: err = %v, want truncated input", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s allocated %d bytes over a %d-byte stream", name, got, len(raw))
		}
	}
}

// TestReadFullGrowsToAnyLength covers the sizes around ReadFull's growth
// steps: whatever n is, the n bytes written come back.
func TestReadFullGrowsToAnyLength(t *testing.T) {
	src := make([]byte, 5*allocStep)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, allocStep - 1, allocStep, allocStep + 1, 2 * allocStep, 3*allocStep + 17, len(src)} {
		got, err := ReadFull(bytes.NewReader(src), n)
		if err != nil || !bytes.Equal(got, src[:n]) {
			t.Errorf("n=%d: %d bytes, err %v", n, len(got), err)
		}
		if _, err := ReadFull(bytes.NewReader(src[:n]), n+1); err != io.ErrUnexpectedEOF {
			t.Errorf("n=%d of %d: err = %v, want io.ErrUnexpectedEOF", n, n+1, err)
		}
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	r.F64s()
	_ = r.String()
	if r.Err() != first {
		t.Error("reader error not sticky")
	}

	w := NewWriter(failWriter{})
	w.U64(1)
	werr := w.Err()
	if werr == nil {
		t.Fatal("expected write error")
	}
	w.String("x")
	if w.Err() != werr {
		t.Error("writer error not sticky")
	}
}

func TestMatrixShapeOverflowRejected(t *testing.T) {
	// rows = cols = 2^32: the product overflows int64 to 0, which would
	// match an empty data slice if dimensions weren't capped first.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(1 << 32)
	w.I64(1 << 32)
	w.F64s(nil)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Matrix()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "corrupt matrix shape") {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptBoolAndMatrix(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{9}))
	r.Bool()
	if r.Err() == nil {
		t.Error("corrupt bool accepted")
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(2)
	w.Int(3)
	w.F64s([]float64{1, 2}) // 2 values for a 2x3 shape
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r = NewReader(&buf)
	r.Matrix()
	if r.Err() == nil {
		t.Error("corrupt matrix accepted")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
