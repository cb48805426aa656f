package tree

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mat"
	"repro/internal/wire"
)

func fitSmallTree(t *testing.T, seed int64) (*Classifier, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(120, 6)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		if x.At(i, 0)+x.At(i, 3) > 0 {
			y[i] = rng.Intn(2)
		} else {
			y[i] = 2
		}
	}
	tr := New(Config{MaxDepth: 6, MaxFeatures: 3, Seed: seed})
	if err := tr.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	eval := mat.New(50, 6)
	for i := range eval.Data {
		eval.Data[i] = rng.NormFloat64()
	}
	return tr, eval
}

// TestCodecRoundTrip pins the tentpole invariant: Fit → Encode → Decode →
// predict is bit-identical to the in-memory tree on the same inputs.
func TestCodecRoundTrip(t *testing.T) {
	tr, eval := fitSmallTree(t, 3)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != tr.NumNodes() || got.Depth() != tr.Depth() {
		t.Fatalf("decoded %d nodes depth %d, want %d nodes depth %d",
			got.NumNodes(), got.Depth(), tr.NumNodes(), tr.Depth())
	}
	for i := 0; i < eval.Rows; i++ {
		want, err := tr.PredictProbaRow(eval.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.PredictProbaRow(eval.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if have[c] != want[c] {
				t.Fatalf("row %d class %d: %v vs %v (not bit-identical)", i, c, have[c], want[c])
			}
		}
	}
	wantImp := tr.FeatureImportances()
	for i, v := range got.FeatureImportances() {
		if v != wantImp[i] {
			t.Fatalf("importance %d: %v vs %v", i, v, wantImp[i])
		}
	}
}

func TestEncodeUnfitted(t *testing.T) {
	if err := New(DefaultConfig()).Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("encoding an unfitted tree should fail")
	}
}

func TestDecodeRejectsCorruptNodes(t *testing.T) {
	tr, _ := fitSmallTree(t, 5)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations never panic and always error.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// TestDecodeNodeCountIsAClaim: a header's node count is a claim, so a few
// bytes announcing a million nodes fail as truncated having cost kilobytes,
// not the gigabytes the count would size.
func TestDecodeNodeCountIsAClaim(t *testing.T) {
	var buf bytes.Buffer
	ww := wire.NewWriter(&buf)
	ww.U16(codecVersion)
	for range 4 {
		ww.Int(0) // MaxDepth, MinSamplesSplit, MinSamplesLeaf, MaxFeatures
	}
	ww.I64(1)       // seed
	ww.Int(2)       // classes
	ww.Int(1)       // features
	ww.Int(1 << 20) // nodes, none of which follow
	if err := ww.Err(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no nodes behind it decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes", buf.Len(), got)
	}
}
