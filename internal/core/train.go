package core

import (
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Provenance is what a training run records about where its rows came from,
// and all a later run needs to get the same rows back: the Table IV dataset,
// the simulation scale and seed, and the trial caps applied after the split
// (0 = uncapped). An artifact carries it in its metadata.
type Provenance struct {
	Dataset           string
	Scale             float64
	Seed              int64
	MaxTrain, MaxTest int
}

// ProvenanceOf reads the provenance an artifact's metadata records.
func ProvenanceOf(m artifact.Metadata) Provenance {
	return Provenance{Dataset: m.Dataset, Scale: m.Scale, Seed: m.Seed, MaxTrain: m.MaxTrain, MaxTest: m.MaxTest}
}

// Simulator builds the simulation p names. Producers, the load generator and
// the dataset exporter all get theirs here, so they agree on the
// simulation's settings and not just on seed and scale.
func (p Provenance) Simulator() (*telemetry.Simulator, error) {
	return telemetry.NewSimulator(telemetry.Config{Seed: p.Seed, Scale: p.Scale, GapRate: 1})
}

// Regenerate turns provenance into data: the simulator, and the named
// challenge dataset split by p.Seed and capped. It is a pure function of p,
// which is what lets a retrain rebuild, from an artifact's metadata alone,
// bit for bit the rows its model was fitted on. An unknown dataset name is
// refused before anything is simulated.
func (p Provenance) Regenerate() (*telemetry.Simulator, *dataset.Challenge, error) {
	spec, ok := dataset.SpecByName(p.Dataset)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown dataset %q", p.Dataset)
	}
	sim, err := p.Simulator()
	if err != nil {
		return nil, nil, err
	}
	ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
	return sim, ch, err
}

// Metadata starts the record of a model trained on rows regenerated from p:
// provenance, class names, the feature pipeline ("cov" from every producer;
// see artifact.Metadata.Features), the shape of the windows x it consumes,
// and the producing tool.
func (p Provenance) Metadata(x *dataset.Tensor3, features, tool string) artifact.Metadata {
	return artifact.Metadata{
		ClassNames: telemetry.ClassNames(), Features: features, Window: x.T, Sensors: x.C,
		Dataset: p.Dataset, Scale: p.Scale, Seed: p.Seed, MaxTrain: p.MaxTrain, MaxTest: p.MaxTest,
		Tool: tool,
	}
}

// Bundle completes meta with what only a finished training run knows — the
// model's kind, always derived from the model and never taken from meta, the
// held-out accuracy, the creation time — and pairs it with the model. Every
// artifact.Metadata of a trained model passes through here.
func Bundle(meta artifact.Metadata, model artifact.Model, accuracy float64) (*artifact.Artifact, error) {
	kind, err := artifact.ModelKind(model)
	if err != nil {
		return nil, err
	}
	meta.Kind, meta.Accuracy, meta.CreatedUnix = kind, accuracy, time.Now().Unix()
	return &artifact.Artifact{Meta: meta, Model: model}, nil
}

// HeldOut is the one scoring pass TrainArtifact makes over fp.TestX: a
// probability row per held-out row and the predicted labels, the arg-max of
// those rows.
type HeldOut struct {
	Probs *mat.Matrix
	Pred  []int
}

// TrainArtifact is the one way a trained model becomes an artifact: run fit
// (which fits model on fp's training rows), score the held-out rows once,
// measure accuracy, calibrate the open-set drift section, and bundle the
// result under meta with fp's scaler. The facade, wcctrain and the adapt
// flywheel's candidates all come through here.
//
// fp.TestY labels the leading rows of fp.TestX; further rows (the flywheel's
// held-out family rows) take part in calibration only. raw holds raw
// telemetry samples for the input-drift reference (RawSensorSamples of the
// training windows); nil skips calibration.
func TrainArtifact(meta artifact.Metadata, fp *FeaturePair, model artifact.Model, fit func() error, raw *mat.Matrix, opts drift.Options) (*artifact.Artifact, *HeldOut, error) {
	if err := fit(); err != nil {
		return nil, nil, fmt.Errorf("core: fitting model: %w", err)
	}
	held, err := scoreHeldOut(model, fp.TestX)
	if err != nil {
		return nil, nil, fmt.Errorf("core: scoring held-out rows: %w", err)
	}
	acc, err := metrics.Accuracy(fp.TestY, held.Pred[:len(fp.TestY)])
	if err != nil {
		return nil, nil, err
	}
	a, err := Bundle(meta, model, acc)
	if err != nil {
		return nil, nil, err
	}
	a.Scaler = fp.Scaler
	if raw != nil {
		in := drift.FitInput{Probs: held.Probs, TrainFeatures: fp.TrainX, HeldOutFeatures: fp.TestX, RawSamples: raw}
		if a.Drift, err = drift.Fit(in, opts); err != nil {
			return nil, nil, fmt.Errorf("core: calibrating drift: %w", err)
		}
	}
	return a, held, nil
}

// scoreHeldOut scores x once, batched. Batched probabilities are
// bit-identical to PredictProba's by the forest's and the booster's
// contracts, and a label is the arg-max of its row (the forest's Predict by
// definition; the booster's, over its pre-softmax scores, by monotonicity).
func scoreHeldOut(model artifact.Model, x *mat.Matrix) (*HeldOut, error) {
	probs, err := model.PredictProbaBatch(x)
	if err != nil {
		return nil, err
	}
	pred := make([]int, probs.Rows)
	for i := range pred {
		pred[i] = mat.ArgMax(probs.Row(i))
	}
	return &HeldOut{Probs: probs, Pred: pred}, nil
}
