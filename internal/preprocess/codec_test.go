package preprocess

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/wire"
)

// TestScalerCodecRoundTrip pins Fit → Encode → Decode → Transform
// bit-identical to the in-memory scaler — the property that keeps live
// serving windows in the training distribution after a model reload.
func TestScalerCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := mat.New(50, 12)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()*3 + 7
	}
	var s StandardScaler
	if err := s.Fit(x); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScaler(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&s) {
		t.Fatal("decoded scaler statistics differ")
	}
	want, err := s.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if have.Data[i] != want.Data[i] {
			t.Fatalf("z[%d]: %v vs %v (not bit-identical)", i, have.Data[i], want.Data[i])
		}
	}
}

func TestScalerEqual(t *testing.T) {
	a := &StandardScaler{Means: []float64{1, 2}, Stds: []float64{3, 4}}
	b := &StandardScaler{Means: []float64{1, 2}, Stds: []float64{3, 4}}
	if !a.Equal(b) {
		t.Error("identical scalers reported unequal")
	}
	b.Stds[1] = 5
	if a.Equal(b) {
		t.Error("different scalers reported equal")
	}
	if a.Equal(nil) {
		t.Error("nil comparison should be false")
	}
	var nilScaler *StandardScaler
	if !nilScaler.Equal(nil) {
		t.Error("nil-nil comparison should be true")
	}
}

func TestCodecUnfittedAndCorrupt(t *testing.T) {
	if err := (&StandardScaler{}).Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("encoding an unfitted scaler should fail")
	}
	if _, err := DecodeScaler(bytes.NewReader(nil)); err == nil {
		t.Fatal("decoding empty input should fail")
	}
	if _, err := DecodeScaler(bytes.NewReader([]byte{1, 0})); err == nil {
		t.Fatal("decoding a truncated scaler should fail")
	}
}

// TestDecodeScalerRefusesPoison: a scaler section whose std is
// zero, negative, NaN or infinite, or whose mean is not finite, decodes to
// an error naming the first such column, because an embedder standardising
// with it serves NaN features from then on. The well-formed section around
// each bad column decodes. Encode refuses such a scaler too, so the
// poisoned payloads are written field by field, the way Encode lays them
// out.
func TestDecodeScalerRefusesPoison(t *testing.T) {
	encode := func(s *StandardScaler) *bytes.Reader {
		t.Helper()
		var buf bytes.Buffer
		ww := wire.NewWriter(&buf)
		ww.U16(codecVersion)
		ww.F64s(s.Means)
		ww.F64s(s.Stds)
		if err := ww.Err(); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}
	good := func() *StandardScaler {
		return &StandardScaler{Means: []float64{0, 1, -2, 3, 4, 5}, Stds: []float64{1, 2, 0.5, 1, 3, 1}}
	}
	if _, err := DecodeScaler(encode(good())); err != nil {
		t.Fatalf("a well-formed scaler is refused: %v", err)
	}
	mixed := good()
	mixed.Stds = []float64{1, 0, 1, 1, math.NaN(), -2}
	if _, err := DecodeScaler(encode(mixed)); err == nil || !strings.Contains(err.Error(), "column 1 ") {
		t.Fatalf("stds %v decoded with error %v, want one naming column 1", mixed.Stds, err)
	}
	if err := mixed.Encode(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "column 1 ") {
		t.Fatalf("stds %v encoded with error %v, want one naming column 1", mixed.Stds, err)
	}
	cases := []struct {
		col       int
		mean, std float64
	}{
		{1, 1, 0}, {5, 5, -2}, {4, 4, math.NaN()}, {2, -2, math.Inf(1)},
		{3, math.NaN(), 1}, {0, math.Inf(1), 1}, {5, math.Inf(-1), 1},
	}
	for _, tc := range cases {
		s := good()
		s.Means[tc.col], s.Stds[tc.col] = tc.mean, tc.std
		want := fmt.Sprintf("column %d ", tc.col)
		if _, err := DecodeScaler(encode(s)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("mean %v std %v in column %d decoded with error %v, want one naming the column",
				tc.mean, tc.std, tc.col, err)
		}
	}
}
