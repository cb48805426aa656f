package nn

import (
	"math"
	"math/rand"
	"testing"
)

// synthSeqs builds an easy synthetic sequence-classification problem: class
// k has a sinusoid of frequency k+1 in channel 0 and noise elsewhere.
type synthSeqs struct {
	n, t, c int
	data    []float64
}

func (s *synthSeqs) Dims() (int, int, int)      { return s.n, s.t, s.c }
func (s *synthSeqs) At(i, t, c int) float64     { return s.data[(i*s.t+t)*s.c+c] }
func (s *synthSeqs) set(i, t, c int, v float64) { s.data[(i*s.t+t)*s.c+c] = v }

func makeSynth(n, tLen, cCh, k int, seed int64) (*synthSeqs, []int) {
	rng := rand.New(rand.NewSource(seed))
	s := &synthSeqs{n: n, t: tLen, c: cCh, data: make([]float64, n*tLen*cCh)}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % k
		y[i] = cls
		phase := rng.Float64() * 2 * math.Pi
		for t := 0; t < tLen; t++ {
			s.set(i, t, 0, math.Sin(2*math.Pi*float64(cls+1)*float64(t)/float64(tLen)+phase)+0.1*rng.NormFloat64())
			for c := 1; c < cCh; c++ {
				s.set(i, t, c, 0.3*rng.NormFloat64())
			}
		}
	}
	return s, y
}

func TestMakeBatchLayout(t *testing.T) {
	s, _ := makeSynth(4, 5, 2, 2, 1)
	seq := MakeBatch(s, []int{2, 0})
	if len(seq) != 5 || seq[0].Rows != 2 || seq[0].Cols != 2 {
		t.Fatalf("batch layout %d steps %dx%d", len(seq), seq[0].Rows, seq[0].Cols)
	}
	if seq[3].At(0, 1) != s.At(2, 3, 1) {
		t.Error("batch content mismatch")
	}
}

func TestTrainBiLSTMLearnsSinusoids(t *testing.T) {
	s, y := makeSynth(120, 20, 2, 3, 2)
	model, err := NewBiLSTMClassifier(2, 16, 20, 3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	cfg.Patience = 30
	cfg.BatchSize = 16
	res, err := Train(model, s, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValAcc < 0.7 {
		t.Errorf("best val accuracy %v; history %v", res.BestValAcc, res.History)
	}
	// Full-set accuracy with restored best weights must also be high.
	acc, err := Evaluate(model, s, y, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Errorf("full-set accuracy %v after restore", acc)
	}
}

func TestTrainCNNLSTM(t *testing.T) {
	s, y := makeSynth(90, 32, 2, 3, 3)
	model, err := NewCNNLSTMClassifier(2, 32, 3, CNNLSTMOptions{Hidden: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 25
	cfg.Patience = 25
	cfg.BatchSize = 16
	res, err := Train(model, s, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValAcc < 0.5 {
		t.Errorf("CNN-LSTM best val accuracy %v", res.BestValAcc)
	}
}

func TestCNNLSTMSequenceReduction(t *testing.T) {
	std, err := NewCNNLSTMClassifier(7, 540, 26, CNNLSTMOptions{Hidden: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewCNNLSTMClassifier(7, 540, 26, CNNLSTMOptions{Hidden: 8, SmallKernel: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: the standard CNN front-end shortens the sequence ~8×, the
	// small-kernel variant keeps it longer.
	reduced := func(m *CNNLSTMClassifier) int { return m.conv2.OutLen(m.pool.OutLen(m.conv1.OutLen(540))) }
	rStd, rSmall := reduced(std), reduced(small)
	if ratio := 540.0 / float64(rStd); ratio < 6 || ratio > 10 {
		t.Errorf("standard reduction %vx (len %d), want ≈8x", ratio, rStd)
	}
	if rSmall <= rStd*2 {
		t.Errorf("small-kernel length %d should clearly exceed standard %d", rSmall, rStd)
	}
}

func TestBiLSTMStackedConstruction(t *testing.T) {
	m, err := NewBiLSTMClassifier(7, 8, 30, 26, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "LSTM (h=8, 2-layer)" {
		t.Errorf("name = %q", m.Name())
	}
	// 2 BiLSTMs (6 params each) + head (4 params).
	if got := len(m.Params()); got != 16 {
		t.Errorf("param count %d, want 16", got)
	}
	if _, err := NewBiLSTMClassifier(7, 8, 30, 26, 3, 1); err == nil {
		t.Error("3 layers should be rejected")
	}
	if _, err := NewBiLSTMClassifier(7, 8, 30, 26, 0, 1); err == nil {
		t.Error("0 layers should be rejected")
	}
}

func TestStackedBiLSTMTrains(t *testing.T) {
	s, y := makeSynth(80, 16, 2, 2, 5)
	model, err := NewBiLSTMClassifier(2, 8, 16, 2, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	cfg.Patience = 15
	cfg.BatchSize = 16
	res, err := Train(model, s, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValAcc < 0.5 {
		t.Errorf("stacked best val acc %v", res.BestValAcc)
	}
}

func TestTrainEarlyStopping(t *testing.T) {
	s, y := makeSynth(60, 10, 2, 2, 9)
	model, err := NewBiLSTMClassifier(2, 4, 10, 2, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 200
	cfg.Patience = 3
	cfg.BatchSize = 16
	res, err := Train(model, s, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped && len(res.History) == 200 {
		t.Error("expected early stopping well before 200 epochs")
	}
	if len(res.History) > res.BestEpoch+cfg.Patience+1 {
		t.Errorf("trained %d epochs, best at %d, patience %d", len(res.History), res.BestEpoch, cfg.Patience)
	}
}

func TestTrainErrors(t *testing.T) {
	s, y := makeSynth(10, 8, 2, 2, 21)
	model, err := NewBiLSTMClassifier(2, 4, 8, 2, 1, 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(model, s, y[:5], DefaultTrainConfig()); err == nil {
		t.Error("label mismatch should fail")
	}
	tiny := &synthSeqs{n: 2, t: 4, c: 2, data: make([]float64, 16)}
	if _, err := Train(model, tiny, []int{0, 1}, DefaultTrainConfig()); err == nil {
		t.Error("too-few trials should fail")
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	s, y := makeSynth(40, 12, 2, 2, 23)
	model, err := NewBiLSTMClassifier(2, 6, 12, 2, 1, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	cfg.BatchSize = 8
	if _, err := Train(model, s, y, cfg); err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(model, s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	acc, _ := Evaluate(model, s, y, nil, 8)
	if math.Abs(acc-float64(correct)/float64(len(y))) > 1e-12 {
		t.Errorf("Predict and Evaluate disagree: %v vs %v", float64(correct)/float64(len(y)), acc)
	}
}

func TestTrainDeterminism(t *testing.T) {
	s, y := makeSynth(40, 10, 2, 2, 31)
	run := func() float64 {
		model, err := NewBiLSTMClassifier(2, 4, 10, 2, 1, 37)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig()
		cfg.Epochs = 4
		cfg.BatchSize = 8
		res, err := Train(model, s, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestValAcc
	}
	if run() != run() {
		t.Error("training is not deterministic for a fixed seed")
	}
}

// TestPredictProbaBatchMatchesPredict checks the batched probability path
// agrees with Predict's argmax labels and yields normalised rows, across
// batch sizes (including one that does not divide the trial count).
func TestPredictProbaBatchMatchesPredict(t *testing.T) {
	s, _ := makeSynth(30, 12, 2, 3, 9)
	model, err := NewBiLSTMClassifier(2, 8, 12, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := Predict(model, s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{7, 30} {
		probs, err := PredictProbaBatch(model, s, nil, bs)
		if err != nil {
			t.Fatal(err)
		}
		if probs.Rows != 30 || probs.Cols != 3 {
			t.Fatalf("probs shape %dx%d", probs.Rows, probs.Cols)
		}
		for i := 0; i < probs.Rows; i++ {
			row := probs.Row(i)
			var sum float64
			for _, v := range row {
				if v < 0 {
					t.Fatalf("row %d has negative probability %v", i, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d sums to %v", i, sum)
			}
		}
	}
	// Dropout is inactive at inference, so argmax must match Predict.
	probs, err := PredictProbaBatch(model, s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range labels {
		got, best := 0, probs.At(i, 0)
		for c := 1; c < probs.Cols; c++ {
			if probs.At(i, c) > best {
				got, best = c, probs.At(i, c)
			}
		}
		if got != want {
			t.Fatalf("trial %d: batched argmax %d vs Predict %d", i, got, want)
		}
	}
	if _, err := PredictProbaBatch(model, s, []int{}, 8); err == nil {
		t.Error("empty index set should fail")
	}
}
