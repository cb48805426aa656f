package forest

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/wire"
)

func fitSmallForest(t *testing.T, seed int64) (*Classifier, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(150, 8)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(4)
	}
	f := New(Config{NumTrees: 12, MaxDepth: 7, Bootstrap: true, Seed: seed})
	if err := f.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	eval := mat.New(60, 8)
	for i := range eval.Data {
		eval.Data[i] = rng.NormFloat64()
	}
	return f, eval
}

// TestCodecRoundTrip pins Fit → Encode → Decode → PredictProbaBatch
// bit-identical to the in-memory forest on the same inputs.
func TestCodecRoundTrip(t *testing.T) {
	f, eval := fitSmallForest(t, 11)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrees() != f.NumTrees() {
		t.Fatalf("decoded %d trees, want %d", got.NumTrees(), f.NumTrees())
	}
	want, err := f.PredictProbaBatch(eval)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.PredictProbaBatch(eval)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if have.Data[i] != want.Data[i] {
			t.Fatalf("prob[%d]: %v vs %v (not bit-identical)", i, have.Data[i], want.Data[i])
		}
	}

	wantImp := f.FeatureImportances()
	for i, v := range got.FeatureImportances() {
		if v != wantImp[i] {
			t.Fatalf("importance %d: %v vs %v", i, v, wantImp[i])
		}
	}
}

func TestEncodeUnfitted(t *testing.T) {
	if err := New(DefaultConfig()).Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("encoding an unfitted forest should fail")
	}
}

// TestOOBUnavailableAfterDecode pins that a decoded forest reports a
// descriptive error for OOBScore instead of panicking on the missing
// training-time out-of-bag state.
func TestOOBUnavailableAfterDecode(t *testing.T) {
	f, eval := fitSmallForest(t, 13)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	y := make([]int, eval.Rows)
	if _, err := got.OOBScore(eval, y); err == nil {
		t.Fatal("OOBScore on a decoded forest should fail")
	}
}

// TestDecodeRejectsMismatchedTreeHeader pins the crafted-payload defence: a
// forest header claiming fewer classes than its embedded trees must fail to
// decode instead of panicking later when a leaf distribution overruns the
// forest's accumulator rows.
func TestDecodeRejectsMismatchedTreeHeader(t *testing.T) {
	f, _ := fitSmallForest(t, 19) // fitted for 4 classes
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Forest header layout: u16 version, 4 int64 config fields, bool,
	// 2 int64 (retired workers slot, seed), then numClasses at this offset.
	const numClassesOff = 2 + 4*8 + 1 + 2*8
	if raw[numClassesOff] != 4 {
		t.Fatalf("header layout drifted: numClasses byte = %d", raw[numClassesOff])
	}
	raw[numClassesOff] = 2
	_, err := Decode(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("mismatched tree/forest class counts decoded successfully")
	}
}

func TestDecodeTruncations(t *testing.T) {
	f, _ := fitSmallForest(t, 17)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 997 {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// sharedChildPayload hand-writes a one-tree forest payload over 2 classes
// and 1 feature whose depth splits each send both children to the next
// node: every child index points forward, but the chain reads as a full
// binary tree of 2^depth leaves once each path is followed on its own.
func sharedChildPayload(t *testing.T, depth int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.U16(codecVersion)
	w.Int(1)     // NumTrees
	w.Int(0)     // MaxDepth
	w.Int(0)     // MaxFeatures
	w.Int(0)     // MinSamplesLeaf
	w.Bool(true) // Bootstrap
	w.Int(0)     // retired Workers slot
	w.I64(0)     // Seed
	w.Int(2)     // classes
	w.Int(1)     // features
	w.Int(1)     // trees
	w.U16(1)     // tree codec version
	w.Int(0)     // MaxDepth
	w.Int(2)     // MinSamplesSplit
	w.Int(1)     // MinSamplesLeaf
	w.Int(1)     // MaxFeatures
	w.I64(0)     // Seed
	w.Int(2)     // classes
	w.Int(1)     // features
	w.Int(depth + 1)
	for i := 0; i < depth; i++ {
		w.Bool(false)
		w.Int(0)
		w.F64(float64(i))
		w.Int(i + 1)
		w.Int(i + 1)
	}
	w.Bool(true)
	w.F64s([]float64{1, 0})
	w.F64s([]float64{1}) // importances
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsSharedChildren pins that a tree payload in which a node
// has two parents is refused: the flat relayout would copy the shared
// subtree once per path, so a payload of a few hundred bytes would compile
// to millions of nodes.
func TestDecodeRejectsSharedChildren(t *testing.T) {
	_, err := Decode(bytes.NewReader(sharedChildPayload(t, 16)))
	if err == nil || !strings.Contains(err.Error(), "two parents") {
		t.Fatalf("decoded a tree whose nodes have two parents: err = %v", err)
	}
}
