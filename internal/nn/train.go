package nn

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// SeqSource abstracts a (trials × samples × sensors) dataset so the trainer
// does not depend on the dataset package (dataset.Tensor3 satisfies it).
type SeqSource interface {
	Dims() (n, t, c int)
	At(i, t, c int) float64
}

// MakeBatch assembles the given trials into the trainer's sequence layout:
// T matrices of B×C.
func MakeBatch(x SeqSource, ids []int) []*mat.Matrix {
	_, t, c := x.Dims()
	seq := make([]*mat.Matrix, t)
	for step := 0; step < t; step++ {
		m := mat.New(len(ids), c)
		for bi, i := range ids {
			row := m.Row(bi)
			for ch := 0; ch < c; ch++ {
				row[ch] = x.At(i, step, ch)
			}
		}
		seq[step] = m
	}
	return seq
}

// TrainConfig controls the Section V training protocol.
type TrainConfig struct {
	// Epochs is the maximum epoch count (the paper trains up to 1000).
	Epochs int
	// BatchSize for SGD.
	BatchSize int
	// LRMax / LRMin bound the cyclical cosine schedule.
	LRMax, LRMin float64
	// CycleEpochs is the schedule's cycle length in epochs.
	CycleEpochs int
	// Patience stops training when validation accuracy has not improved
	// for this many epochs (the paper uses 100). Zero disables it.
	Patience int
	// Seed drives shuffling and the validation split.
	Seed int64
}

// The parts of the Section V protocol no run varies.
const (
	// valFrac is the share of the training set carved out for validation.
	valFrac = 0.15
	// maxGradNorm clips the global gradient norm of every step.
	maxGradNorm = 5
)

// DefaultTrainConfig returns the scaled defaults wcctrain's sequence arms
// and the tests train with.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      20,
		BatchSize:   32,
		LRMax:       3e-3,
		LRMin:       1e-4,
		CycleEpochs: 8,
		Patience:    10,
		Seed:        1,
	}
}

// EpochStats records one epoch of training history.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValAcc    float64
	LR        float64
}

// TrainResult summarises a training run.
type TrainResult struct {
	BestValAcc float64
	BestEpoch  int
	History    []EpochStats
	// EarlyStopped reports whether patience ran out before Epochs.
	EarlyStopped bool
}

// Train fits the model with Adam under the cyclical cosine schedule,
// early-stopping on validation accuracy and restoring the best weights, as
// the paper's protocol reports best-validation-epoch numbers. Each epoch
// logs one debug record.
func Train(model SequenceClassifier, x SeqSource, y []int, cfg TrainConfig) (*TrainResult, error) {
	n, _, _ := x.Dims()
	if n != len(y) {
		return nil, fmt.Errorf("nn: %d trials vs %d labels", n, len(y))
	}
	if n < 4 {
		return nil, errors.New("nn: too few trials to train")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(n)
	nVal := int(float64(n) * valFrac)
	if nVal < 1 {
		nVal = 1
	}
	valIdx := perm[:nVal]
	trainIdx := perm[nVal:]

	stepsPerEpoch := (len(trainIdx) + cfg.BatchSize - 1) / cfg.BatchSize
	cycle := cfg.CycleEpochs
	if cycle <= 0 {
		cycle = cfg.Epochs
	}
	sched := NewCyclicalCosineLR(cfg.LRMin, cfg.LRMax, cycle*stepsPerEpoch)
	opt := NewAdam()
	params := model.Params()

	res := &TrainResult{BestValAcc: -1}
	var bestWeights []*mat.Matrix
	globalStep := 0
	sinceBest := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(trainIdx), func(a, b int) { trainIdx[a], trainIdx[b] = trainIdx[b], trainIdx[a] })
		var epochLoss float64
		var lr float64
		for start := 0; start < len(trainIdx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(trainIdx) {
				end = len(trainIdx)
			}
			ids := trainIdx[start:end]
			seq := MakeBatch(x, ids)
			labels := make([]int, len(ids))
			for k, i := range ids {
				labels[k] = y[i]
			}

			logProbs := model.Forward(seq, true)
			loss, grad := NLLLoss(logProbs, labels)
			epochLoss += loss * float64(len(ids))

			ZeroGrads(params)
			model.Backward(grad)
			ClipGradNorm(params, maxGradNorm)
			lr = sched.At(globalStep)
			opt.Step(params, lr)
			globalStep++
		}
		epochLoss /= float64(len(trainIdx))

		valAcc, err := Evaluate(model, x, y, valIdx, cfg.BatchSize)
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, EpochStats{Epoch: epoch, TrainLoss: epochLoss, ValAcc: valAcc, LR: lr})
		slog.Debug("nn: epoch", "epoch", epoch, "loss", epochLoss, "val_acc", valAcc, "lr", lr)

		if valAcc > res.BestValAcc {
			res.BestValAcc = valAcc
			res.BestEpoch = epoch
			sinceBest = 0
			bestWeights = snapshot(params)
		} else {
			sinceBest++
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				res.EarlyStopped = true
				break
			}
		}
	}

	if bestWeights != nil {
		restore(params, bestWeights)
	}
	return res, nil
}

func snapshot(params []*Param) []*mat.Matrix {
	out := make([]*mat.Matrix, len(params))
	for i, p := range params {
		out[i] = p.W.Clone()
	}
	return out
}

func restore(params []*Param, weights []*mat.Matrix) {
	for i, p := range params {
		copy(p.W.Data, weights[i].Data)
	}
}

// Evaluate computes accuracy of the model on the given trial indices
// (all trials when idx is nil).
func Evaluate(model SequenceClassifier, x SeqSource, y []int, idx []int, batchSize int) (float64, error) {
	n, _, _ := x.Dims()
	if idx == nil {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return 0, errors.New("nn: no trials to evaluate")
	}
	pred, err := Predict(model, x, idx, batchSize)
	if err != nil {
		return 0, err
	}
	correct := 0
	for k, i := range idx {
		if pred[k] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx)), nil
}

// PredictProbaBatch returns per-class probabilities for the given trials
// (all trials when idx is nil), one row per trial. It is the sequence-model
// counterpart of the forest/xgb batched predict paths: trials are forwarded
// through the network a whole batch at a time — one Forward per batch rather
// than per trial — and the head's log-softmax output is exponentiated.
func PredictProbaBatch(model SequenceClassifier, x SeqSource, idx []int, batchSize int) (*mat.Matrix, error) {
	n, _, _ := x.Dims()
	if idx == nil {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return nil, errors.New("nn: no trials to predict")
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	var out *mat.Matrix
	for start := 0; start < len(idx); start += batchSize {
		end := start + batchSize
		if end > len(idx) {
			end = len(idx)
		}
		seq := MakeBatch(x, idx[start:end])
		logProbs := model.Forward(seq, false)
		if out == nil {
			out = mat.New(len(idx), logProbs.Cols)
		}
		for k := 0; k < end-start; k++ {
			src := logProbs.Row(k)
			dst := out.Row(start + k)
			for c, v := range src {
				dst[c] = math.Exp(v)
			}
		}
	}
	return out, nil
}

// Predict labels the given trials (all trials when idx is nil). Labels are
// the argmax of PredictProbaBatch's rows — exp is monotone, so this equals
// the argmax over the head's log-probabilities.
func Predict(model SequenceClassifier, x SeqSource, idx []int, batchSize int) ([]int, error) {
	n, _, _ := x.Dims()
	if idx == nil {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return []int{}, nil
	}
	probs, err := PredictProbaBatch(model, x, idx, batchSize)
	if err != nil {
		return nil, err
	}
	out := make([]int, probs.Rows)
	for i := range out {
		out[i] = mat.ArgMax(probs.Row(i))
	}
	return out, nil
}
