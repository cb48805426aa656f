package preprocess

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mat"
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
