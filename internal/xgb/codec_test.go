package xgb

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
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
	c := New(Config{NumRounds: 6, LearningRate: 0.3, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 0.9, Seed: seed})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	eval := mat.New(50, 6)
	for i := range eval.Data {
		eval.Data[i] = rng.NormFloat64()
	}
	return c, eval
}

// TestCodecRoundTrip pins Fit → Encode → Decode → PredictProbaBatch
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
	want, err := c.PredictProbaBatch(eval)
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

func TestEncodeUnfitted(t *testing.T) {
	if err := New(DefaultConfig()).Encode(&bytes.Buffer{}); err == nil {
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
