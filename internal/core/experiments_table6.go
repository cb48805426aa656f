package core

import (
	"fmt"
	"log/slog"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// Table6Spec identifies one RNN baseline row of the paper's Table VI.
type Table6Spec struct {
	// PaperHidden is the hidden size the paper used (128/256/512); the
	// preset's HiddenScale divides it.
	PaperHidden int
	Layers      int // 1 or 2 (BiLSTM only)
	CNN         bool
	SmallKernel bool
}

// PaperName renders the row label exactly as Table VI prints it.
func (s Table6Spec) PaperName() string {
	switch {
	case s.CNN && s.SmallKernel:
		return fmt.Sprintf("CNN-LSTM (h=%d, small kernel)", s.PaperHidden)
	case s.CNN:
		return fmt.Sprintf("CNN-LSTM (h=%d)", s.PaperHidden)
	case s.Layers == 2:
		return fmt.Sprintf("LSTM (h=%d, 2-layer)", s.PaperHidden)
	default:
		return fmt.Sprintf("LSTM (h=%d)", s.PaperHidden)
	}
}

// Table6Specs lists the six models in the paper's row order.
var Table6Specs = []Table6Spec{
	{PaperHidden: 128, Layers: 1},
	{PaperHidden: 128, Layers: 2},
	{PaperHidden: 128, Layers: 1, CNN: true},
	{PaperHidden: 256, Layers: 1, CNN: true},
	{PaperHidden: 512, Layers: 1, CNN: true},
	{PaperHidden: 512, Layers: 1, CNN: true, SmallKernel: true},
}

// table6Datasets are the three datasets the paper trains RNNs on.
var table6Datasets = []string{"60-start-1", "60-middle-1", "60-random-1"}

// Table6Cell is one (model, dataset) outcome.
type Table6Cell struct {
	TestAccuracy float64
	BestValAcc   float64
	Epochs       int
	EarlyStopped bool
}

// Table6Result maps model name → dataset name → cell.
type Table6Result struct {
	Cells    map[string]map[string]Table6Cell
	Models   []string
	Datasets []string
	// Setting names where the preset departs from the paper's protocol.
	Setting string
}

// RunTable6 reproduces Table VI: the six Section V architectures trained on
// the start, middle and random-1 datasets with standardisation only, Adam,
// a cyclical cosine LR schedule and early stopping on validation accuracy.
func RunTable6(sim *telemetry.Simulator, p Preset) (*Table6Result, error) {
	res := &Table6Result{Cells: map[string]map[string]Table6Cell{}}
	for _, spec := range Table6Specs {
		res.Models = append(res.Models, spec.PaperName())
		res.Cells[spec.PaperName()] = map[string]Table6Cell{}
	}
	res.Datasets = table6Datasets

	scale := p.RNN.HiddenScale
	if scale < 1 {
		scale = 1
	}
	res.Setting = fmt.Sprintf("hidden sizes ÷%d, stride %d, at most %d epochs", scale, p.RNN.Stride, p.RNN.Epochs)

	for _, dsName := range table6Datasets {
		spec, ok := dataset.SpecByName(dsName)
		if !ok {
			return nil, fmt.Errorf("core: dataset %s missing", dsName)
		}
		ch, err := BuildDataset(sim, spec, p.Seed, p.RNN.MaxTrain, p.RNN.MaxTest)
		if err != nil {
			return nil, err
		}

		trainT, testT, err := SequenceTensors(ch, p.RNN.Stride)
		if err != nil {
			return nil, err
		}
		seqLen := trainT.T
		numClasses := int(telemetry.NumClasses)

		for _, ms := range Table6Specs {
			hidden := ms.PaperHidden / scale
			if hidden < 4 {
				hidden = 4
			}
			var model nn.SequenceClassifier
			if ms.CNN {
				model, err = nn.NewCNNLSTMClassifier(trainT.C, seqLen, numClasses, nn.CNNLSTMOptions{
					Hidden: hidden, SmallKernel: ms.SmallKernel, Seed: p.Seed,
				})
			} else {
				model, err = nn.NewBiLSTMClassifier(trainT.C, hidden, seqLen, numClasses, ms.Layers, p.Seed)
			}
			if err != nil {
				return nil, fmt.Errorf("core: building %s: %w", ms.PaperName(), err)
			}

			cfg := nn.TrainConfig{
				Epochs:      p.RNN.Epochs,
				BatchSize:   p.RNN.BatchSize,
				LRMax:       p.RNN.LRMax,
				LRMin:       p.RNN.LRMin,
				CycleEpochs: p.RNN.CycleEpochs,
				Patience:    p.RNN.Patience,
				Seed:        p.Seed,
			}
			tr, err := nn.Train(model, trainT, ch.Train.Y, cfg)
			if err != nil {
				return nil, fmt.Errorf("core: training %s on %s: %w", ms.PaperName(), dsName, err)
			}
			pred, err := nn.Predict(model, testT, nil, cfg.BatchSize)
			if err != nil {
				return nil, err
			}
			acc, err := metrics.Accuracy(ch.Test.Y, pred)
			if err != nil {
				return nil, err
			}
			res.Cells[ms.PaperName()][dsName] = Table6Cell{
				TestAccuracy: acc,
				BestValAcc:   tr.BestValAcc,
				Epochs:       len(tr.History),
				EarlyStopped: tr.EarlyStopped,
			}
			slog.Info("table6 cell", "dataset", dsName, "model", ms.PaperName(), "acc", acc, "val_acc", tr.BestValAcc, "epochs", len(tr.History))
		}
	}
	return res, nil
}
