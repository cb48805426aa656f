package xgb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/wire"
)

func fitSmallBooster(t *testing.T, seed int64) (*Classifier, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(120, 6)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(3)
	}
	c := New(Config{NumRounds: 6, Lambda: 1})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	eval := mat.New(50, 6)
	for i := range eval.Data {
		eval.Data[i] = rng.NormFloat64()
	}
	return c, eval
}

// TestCodecRoundTrip pins Fit → Encode → Decode → PredictProba
// bit-identical to the in-memory booster on the same inputs.
func TestCodecRoundTrip(t *testing.T) {
	c, eval := fitSmallBooster(t, 7)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRounds() != c.NumRounds() {
		t.Fatalf("decoded %d rounds, want %d", got.NumRounds(), c.NumRounds())
	}
	want, err := c.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if have.Data[i] != want.Data[i] {
			t.Fatalf("prob[%d]: %v vs %v (not bit-identical)", i, have.Data[i], want.Data[i])
		}
	}

	// Importances and the training-loss curve are provenance; they survive.
	wantImp := c.FeatureImportances(ImportanceGain)
	for i, v := range got.FeatureImportances(ImportanceGain) {
		if v != wantImp[i] {
			t.Fatalf("gain importance %d: %v vs %v", i, v, wantImp[i])
		}
	}
	if len(got.TrainLoss) != len(c.TrainLoss) {
		t.Fatalf("train loss length %d, want %d", len(got.TrainLoss), len(c.TrainLoss))
	}
}

// TestCodecHeaderSlots pins the header layout: the learning rate is written,
// and the retired MaxDepth, MinChildWeight, Subsample, Workers and Seed slots
// carry the constants a fit grows with (seed 0), so readers of the layout
// keep working.
func TestCodecHeaderSlots(t *testing.T) {
	c, _ := fitSmallBooster(t, 7)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rr := wire.NewReader(bytes.NewReader(buf.Bytes()))
	got := []float64{float64(rr.U16()), float64(rr.Int()), rr.F64(), float64(rr.Int()), rr.F64(), rr.F64(), rr.F64(),
		rr.F64(), rr.F64(), float64(rr.Int()), float64(rr.I64())}
	want := []float64{codecVersion, 6, learningRate, maxDepth, 0, 1, 0, minChildWeight, 1, 0, 0}
	if err := rr.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("header slot %d = %v, want %v (header %v)", i, got[i], want[i], got)
		}
	}
}

// TestDecodedModelKeepsItsRate: a payload whose learning-rate slot differs
// from learningRate scores with its own rate and re-encodes byte for byte.
func TestDecodedModelKeepsItsRate(t *testing.T) {
	c, eval := fitSmallBooster(t, 7)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	const lrOffset = 2 + 8 // after the version and NumRounds
	binary.LittleEndian.PutUint64(payload[lrOffset:], math.Float64bits(learningRate/2))
	got, err := Decode(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), payload) {
		t.Fatal("a decoded model re-encodes differently from the payload it came from")
	}
	want, err := c.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if have.Data[i] != want.Data[i] {
			return
		}
	}
	t.Fatal("a model decoded at half the learning rate scores like the original")
}

func TestEncodeUnfitted(t *testing.T) {
	if err := New(Config{}).Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("encoding an unfitted booster should fail")
	}
}

func TestDecodeTruncations(t *testing.T) {
	c, _ := fitSmallBooster(t, 9)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 211 {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// TestDecodeRejectsSharedChildren pins that a payload whose regression tree
// has a node with two parents is refused: the flat relayout would copy the
// shared subtree once per path, doubling per level of such splits.
func TestDecodeRejectsSharedChildren(t *testing.T) {
	c, _ := fitSmallBooster(t, 5)
	const depth = 16
	chain := &regTree{nodes: make([]regNode, depth+1)}
	for i := 0; i < depth; i++ {
		chain.nodes[i] = regNode{threshold: float64(i), left: i + 1, right: i + 1}
	}
	chain.nodes[depth] = regNode{leaf: true, weight: 0.5}
	c.trees[1][2] = chain
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Decode(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "two parents") {
		t.Fatalf("decoded a tree whose nodes have two parents: err = %v", err)
	}
}

// TestDecodeCountsAreClaims: the class count, the round count and a tree's
// node count are claims, so a short payload announcing a million of each
// fails as truncated having cost kilobytes, not the gigabytes the counts
// would size.
func TestDecodeCountsAreClaims(t *testing.T) {
	for _, classes := range []int{1 << 20, 2} {
		var buf bytes.Buffer
		ww := wire.NewWriter(&buf)
		ww.U16(codecVersion)
		ww.Int(1)   // NumRounds
		ww.F64(0.3) // learning rate
		ww.Int(3)   // retired MaxDepth slot
		for range 5 {
			ww.F64(0) // Gamma, Lambda, Alpha, retired MinChildWeight and Subsample slots
		}
		ww.Int(0) // retired Workers slot
		ww.I64(1) // retired Seed slot
		ww.Int(classes)
		ww.Int(1) // features
		ww.F64s([]float64{0})
		ww.F64s([]float64{0})
		ww.F64s(nil)
		ww.F64s(nil)
		ww.Int(1 << 20) // rounds
		ww.Int(1 << 20) // the first tree's nodes, none of which follow
		if err := ww.Err(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d classes: a header with no trees behind it decoded", classes)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%d classes: decoding a %d-byte payload allocated %d bytes", classes, buf.Len(), got)
		}
	}
}
