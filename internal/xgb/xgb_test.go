package xgb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func blobs(n, k int, spread float64, seed int64) (*mat.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		angle := 2 * math.Pi * float64(c) / float64(k)
		x.Set(i, 0, 4*math.Cos(angle)+rng.NormFloat64()*spread)
		x.Set(i, 1, 4*math.Sin(angle)+rng.NormFloat64()*spread)
		y[i] = c
	}
	return x, y
}

func TestXGBSeparable(t *testing.T) {
	x, y := blobs(300, 3, 0.5, 1)
	c := New(Config{NumRounds: 15, LearningRate: 0.3, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	xt, yt := blobs(150, 3, 0.5, 2)
	pred, err := c.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pred {
		if p == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / 150; acc < 0.95 {
		t.Errorf("accuracy %v", acc)
	}
}

func TestXGBTrainLossDecreases(t *testing.T) {
	x, y := blobs(200, 3, 1.0, 3)
	c := New(DefaultConfig())
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(c.TrainLoss) != 40 {
		t.Fatalf("recorded %d losses", len(c.TrainLoss))
	}
	if c.TrainLoss[0] < c.TrainLoss[len(c.TrainLoss)-1] {
		t.Errorf("loss increased: %v -> %v", c.TrainLoss[0], c.TrainLoss[len(c.TrainLoss)-1])
	}
	// First-round loss must be ln(K) (uniform start).
	if math.Abs(c.TrainLoss[0]-math.Log(3)) > 1e-9 {
		t.Errorf("initial loss %v, want ln 3 = %v", c.TrainLoss[0], math.Log(3))
	}
}

func TestXGBEvalAccuracyRecorded(t *testing.T) {
	x, y := blobs(200, 3, 0.8, 5)
	xt, yt := blobs(100, 3, 0.8, 6)
	c := New(Config{NumRounds: 10})
	if err := c.Fit(x, y, 3, xt, yt); err != nil {
		t.Fatal(err)
	}
	if len(c.EvalAccuracy) != 10 {
		t.Fatalf("recorded %d eval points", len(c.EvalAccuracy))
	}
	final := c.EvalAccuracy[len(c.EvalAccuracy)-1]
	if final < 0.9 {
		t.Errorf("final eval accuracy %v", final)
	}
}

func TestXGBGammaPrunesSplits(t *testing.T) {
	x, y := blobs(200, 2, 1.5, 7)
	free := New(Config{NumRounds: 5, Gamma: 0})
	if err := free.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	pruned := New(Config{NumRounds: 5, Gamma: 1e6})
	if err := pruned.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	splitsOf := func(c *Classifier) int {
		total := 0
		for _, round := range c.trees {
			for _, tr := range round {
				for _, n := range tr.nodes {
					if !n.leaf {
						total++
					}
				}
			}
		}
		return total
	}
	if splitsOf(pruned) >= splitsOf(free) {
		t.Errorf("huge gamma did not prune: %d vs %d splits", splitsOf(pruned), splitsOf(free))
	}
	if splitsOf(pruned) != 0 {
		t.Errorf("gamma=1e6 should produce stumps-free trees, got %d splits", splitsOf(pruned))
	}
}

func TestXGBLambdaShrinksLeaves(t *testing.T) {
	x, y := blobs(100, 2, 0.5, 9)
	small := New(Config{NumRounds: 1, Lambda: 0.001})
	if err := small.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	big := New(Config{NumRounds: 1, Lambda: 1000})
	if err := big.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	maxLeaf := func(c *Classifier) float64 {
		m := 0.0
		for _, round := range c.trees {
			for _, tr := range round {
				for _, n := range tr.nodes {
					if n.leaf && math.Abs(n.weight) > m {
						m = math.Abs(n.weight)
					}
				}
			}
		}
		return m
	}
	if maxLeaf(big) >= maxLeaf(small) {
		t.Errorf("λ=1000 leaf %v not smaller than λ=0.001 leaf %v", maxLeaf(big), maxLeaf(small))
	}
}

func TestSoftThreshold(t *testing.T) {
	if softThreshold(5, 2) != 3 || softThreshold(-5, 2) != -3 || softThreshold(1, 2) != 0 {
		t.Error("softThreshold wrong")
	}
}

func TestXGBAlphaZeroesWeakLeaves(t *testing.T) {
	x, y := blobs(100, 2, 2.5, 11)
	c := New(Config{NumRounds: 1, Alpha: 1e6})
	if err := c.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, round := range c.trees {
		for _, tr := range round {
			for _, n := range tr.nodes {
				if n.leaf && n.weight != 0 {
					t.Fatalf("α=1e6 should zero all leaves, got %v", n.weight)
				}
			}
		}
	}
}

func TestXGBFeatureImportance(t *testing.T) {
	// Feature 1 carries all the signal.
	rng := rand.New(rand.NewSource(13))
	n := 300
	x := mat.New(n, 3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		s := rng.NormFloat64()
		x.Set(i, 1, s)
		x.Set(i, 2, rng.NormFloat64())
		if s > 0 {
			y[i] = 1
		}
	}
	c := New(Config{NumRounds: 10})
	if err := c.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	gain := c.FeatureImportances(ImportanceGain)
	if gain[1] < 0.7 {
		t.Errorf("signal feature gain importance %v (all %v)", gain[1], gain)
	}
	// Weight importance merely counts splits, so deep refits on noise
	// residuals can dominate it (the reason gain is the paper's metric);
	// just require the signal feature to be split on at all and the
	// distribution to normalise.
	weight := c.FeatureImportances(ImportanceWeight)
	if weight[1] == 0 {
		t.Errorf("signal feature never split on: %v", weight)
	}
	if math.Abs(weight[0]+weight[1]+weight[2]-1) > 1e-9 {
		t.Errorf("weight importances do not normalise: %v", weight)
	}
	top := c.TopFeatures(ImportanceGain, 1)
	if len(top) != 1 || top[0] != 1 {
		t.Errorf("TopFeatures = %v", top)
	}
}

func TestXGBPredictProba(t *testing.T) {
	x, y := blobs(120, 3, 0.8, 15)
	c := New(Config{NumRounds: 8})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	probs, err := c.PredictProba(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < probs.Rows; i++ {
		sum := mat.SumSlice(probs.Row(i))
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d probs sum %v", i, sum)
		}
	}
}

func TestXGBSubsample(t *testing.T) {
	x, y := blobs(200, 2, 1.0, 17)
	c := New(Config{NumRounds: 10, Subsample: 0.5, Seed: 1})
	if err := c.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	pred, _ := c.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	if float64(correct)/200 < 0.9 {
		t.Errorf("subsampled accuracy %v", float64(correct)/200)
	}
}

func TestXGBErrors(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.Fit(mat.New(2, 2), []int{0}, 2, nil, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := c.Fit(mat.New(0, 2), nil, 2, nil, nil); err == nil {
		t.Error("empty set should fail")
	}
	if err := c.Fit(mat.New(2, 2), []int{0, 1}, 1, nil, nil); err == nil {
		t.Error("single class should fail")
	}
	if err := c.Fit(mat.New(2, 2), []int{0, 7}, 2, nil, nil); err == nil {
		t.Error("bad label should fail")
	}
	if _, err := c.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
}

func TestXGBDeterminism(t *testing.T) {
	x, y := blobs(150, 3, 1.0, 19)
	c1 := New(Config{NumRounds: 5, Subsample: 0.8, Seed: 7})
	c2 := New(Config{NumRounds: 5, Subsample: 0.8, Seed: 7})
	if err := c1.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	p1, _ := c1.Predict(x)
	p2, _ := c2.Predict(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different ensembles")
		}
	}
}

func TestXGBPredictProbaBatchErrors(t *testing.T) {
	if _, err := New(Config{}).PredictProba(mat.New(1, 2)); err == nil {
		t.Error("unfitted predict should fail")
	}
	x, y := blobs(60, 2, 0.5, 14)
	c := New(Config{NumRounds: 3})
	if err := c.Fit(x, y, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictProba(mat.New(4, 5)); err == nil {
		t.Error("feature-count mismatch should fail")
	}
}

// TestXGBPredictProbaBatchIntoOverwrites pins the caller-owned output path a
// fleet tick scores into: whatever the buffer held before — NaN garbage or a
// previous, larger batch — each call's rows are bit-identical to
// PredictProba's; a misshapen output or an unfitted booster is refused.
func TestXGBPredictProbaBatchIntoOverwrites(t *testing.T) {
	x, y := blobs(250, 3, 0.9, 15)
	c := New(Config{NumRounds: 10, MaxDepth: 4, Seed: 3})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, x.Rows*c.NumClasses())
	for i := range buf {
		buf[i] = math.NaN()
	}
	for _, rows := range []int{x.Rows, 97, 1, 0} {
		ev := &mat.Matrix{Rows: rows, Cols: x.Cols, Data: x.Data[:rows*x.Cols]}
		out := &mat.Matrix{Rows: rows, Cols: c.NumClasses(), Data: buf[:rows*c.NumClasses()]}
		if err := c.PredictProbaBatchInto(ev, out); err != nil {
			t.Fatal(err)
		}
		want, err := c.PredictProba(ev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rows=%d: element %d: into %v vs PredictProba %v", rows, i, out.Data[i], want.Data[i])
			}
		}
	}
	for _, bad := range []*mat.Matrix{
		mat.New(x.Rows, c.NumClasses()+1),
		mat.New(x.Rows-1, c.NumClasses()),
		{Rows: x.Rows, Cols: c.NumClasses(), Data: buf[:len(buf)-1]},
	} {
		if err := c.PredictProbaBatchInto(x, bad); err == nil {
			t.Fatalf("accepted a %dx%d output of %d values", bad.Rows, bad.Cols, len(bad.Data))
		}
	}
	if err := New(Config{}).PredictProbaBatchInto(mat.New(1, 2), mat.New(1, 0)); err == nil {
		t.Error("unfitted batch predict into should fail")
	}
}

// TestXGBPredictProbaBatchRefusesShortInput pins that every predict entry
// point checks x.Data against x.Rows×x.Cols before any block worker slices
// it: a Data holding fewer rows than x.Rows, with spare capacity behind it
// or without, or more values than the shape names, is an error, never rows
// scored from stale memory or a panic.
func TestXGBPredictProbaBatchRefusesShortInput(t *testing.T) {
	x, y := blobs(100, 3, 0.9, 16)
	c := New(Config{NumRounds: 3, MaxDepth: 3, Seed: 2})
	if err := c.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	half := x.Rows / 2 * x.Cols
	for name, data := range map[string][]float64{
		"spare capacity": x.Data[:half],
		"exact capacity": x.Data[:half:half],
		"too long":       append(append([]float64(nil), x.Data...), 0),
	} {
		bad := &mat.Matrix{Rows: x.Rows, Cols: x.Cols, Data: data}
		for method, predict := range map[string]func(*mat.Matrix) error{
			"PredictProba": func(x *mat.Matrix) error { _, err := c.PredictProba(x); return err },
			"Predict":      func(x *mat.Matrix) error { _, err := c.Predict(x); return err },
		} {
			if err := predict(bad); err == nil {
				t.Errorf("%s, %s: accepted a %dx%d input of %d values", method, name, bad.Rows, bad.Cols, len(data))
			}
		}
	}
}
