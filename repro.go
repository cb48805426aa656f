// Package repro is the public facade of the MIT Supercloud Workload
// Classification Challenge reproduction (IPDPS-W 2022, arXiv:2204.05839).
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// system inventory); this package re-exports the handful of entry points a
// downstream user needs:
//
//   - GenerateDataset: simulate the labelled dataset and extract one of the
//     seven Table IV challenge datasets.
//   - TrainRFCov: the paper's best baseline (random forest on covariance
//     features), fitted and evaluated in one call.
//   - RunExperiment: regenerate a paper table by name.
//   - Open-set serving: TrainRFCov also calibrates a drift.Calibration
//     (rejection threshold + input reference histograms), so a core built
//     from the result flags unknown workloads, and DriftStats /
//     GET /v1/drift report input drift against the training distribution.
//   - (*RFCovResult).Artifact / SaveModel / LoadModel: the trained pipeline
//     as one value — model + scaler + drift calibration + provenance, an
//     *artifact.Artifact — persisted as a versioned .wcc file and restored,
//     so serving starts in milliseconds instead of a training run.
//
// Serving starts from that one value: server.NewCore(artifact, shards, nil)
// gates it and builds the sharded serving core, server.New puts the HTTP
// API over the core (cmd/wccserve does exactly this, cmd/wccload
// load-tests it; docs/API.md is the request/response reference), and
// Server.Install rolls a newer artifact into the live fleet with zero
// downtime through the same gate.
//
// For anything beyond these — other baselines, custom grids, npz interop —
// import the internal packages directly; they are documented and tested as
// the real API surface.
package repro

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Dataset bundles a built challenge dataset with its generation settings.
type Dataset struct {
	Challenge *dataset.Challenge
	Sim       *telemetry.Simulator
	// Name, Scale and Seed record how the dataset was generated; saved
	// artifacts carry them as training provenance.
	Name  string
	Scale float64
	Seed  int64
}

// GenerateDataset simulates the labelled dataset at the given scale
// (0 < scale ≤ 1, where 1 reproduces the paper's 3,430 jobs) and extracts
// the named challenge dataset ("60-start-1", "60-middle-1", "60-random-1"
// … "60-random-5") with the challenge's 80/20 split.
func GenerateDataset(name string, scale float64, seed int64) (*Dataset, error) {
	spec, ok := dataset.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown dataset %q", name)
	}
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: seed, Scale: scale, GapRate: 1})
	if err != nil {
		return nil, err
	}
	ch, err := core.BuildDataset(sim, spec, seed, 0, 0)
	if err != nil {
		return nil, err
	}
	return &Dataset{Challenge: ch, Sim: sim, Name: name, Scale: scale, Seed: seed}, nil
}

// RFCovResult reports a TrainRFCov run.
type RFCovResult struct {
	Accuracy   float64
	Confusion  *metrics.ConfusionMatrix
	Model      *forest.Classifier
	ClassNames []string
	// Scaler holds the training-set statistics the features were
	// standardised with; serving paths reuse it so live windows are
	// preprocessed exactly as the model was trained.
	Scaler *preprocess.StandardScaler
	// Drift is the open-set calibration fitted alongside the model: a
	// rejection threshold calibrated on the held-out test split's
	// predicted probabilities, and input reference histograms over the
	// raw training windows. Serving fleets built from this result flag
	// unknown workloads and report input drift (see internal/drift).
	Drift *drift.Calibration
}

// TrainRFCov runs the paper's strongest baseline end to end: standardise,
// covariance-embed, fit a random forest, and score the held-out test split.
func TrainRFCov(ds *Dataset, trees int, seed int64) (*RFCovResult, error) {
	fp, err := core.CovFeatures(ds.Challenge)
	if err != nil {
		return nil, err
	}
	f := forest.New(forest.Config{NumTrees: trees, Bootstrap: true, Seed: seed})
	if err := f.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)); err != nil {
		return nil, err
	}
	// One batched inference pass serves both the accuracy report and the
	// drift calibration below: Predict is the argmax of these very rows
	// (bit-identical per forest's contract), so deriving it avoids scoring
	// the test split twice.
	probs, err := f.PredictProbaBatch(fp.TestX)
	if err != nil {
		return nil, err
	}
	pred := make([]int, probs.Rows)
	for i := range pred {
		pred[i] = mat.ArgMax(probs.Row(i))
	}
	acc, err := metrics.Accuracy(fp.TestY, pred)
	if err != nil {
		return nil, err
	}
	cm, err := metrics.NewConfusionMatrix(fp.TestY, pred, int(telemetry.NumClasses))
	if err != nil {
		return nil, err
	}
	names := telemetry.ClassNames()
	// Open-set calibration: the rejection threshold comes from the held-out
	// test probabilities and feature distances, the feature statistics from
	// the training embeddings, and the drift reference from the raw
	// training windows.
	cal, err := drift.Fit(drift.FitInput{
		Probs:           probs,
		TrainFeatures:   fp.TrainX,
		HeldOutFeatures: fp.TestX,
		RawSamples:      core.RawSensorSamples(ds.Challenge.Train.X),
	}, drift.Options{})
	if err != nil {
		return nil, err
	}
	return &RFCovResult{Accuracy: acc, Confusion: cm, Model: f, ClassNames: names, Scaler: fp.Scaler, Drift: cal}, nil
}

// Artifact bundles the trained pipeline with its provenance as the one
// model value serving consumes: server.NewCore boots a core from it,
// SaveModel persists it, and a reloaded copy serves bit-identically. ds is
// the dataset the result was trained on.
func (res *RFCovResult) Artifact(ds *Dataset) *artifact.Artifact {
	return &artifact.Artifact{
		Meta: artifact.Metadata{
			Kind:        artifact.KindForest,
			ClassNames:  res.ClassNames,
			Features:    "cov",
			Window:      ds.Challenge.Train.X.T,
			Sensors:     ds.Challenge.Train.X.C,
			Dataset:     ds.Name,
			Scale:       ds.Scale,
			Seed:        ds.Seed,
			Accuracy:    res.Accuracy,
			CreatedUnix: time.Now().Unix(),
			Tool:        "repro.TrainRFCov",
		},
		Scaler: res.Scaler,
		Drift:  res.Drift,
		Model:  res.Model,
	}
}

// SaveModel writes a trained RF-Cov pipeline to path as a versioned .wcc
// artifact (see Artifact). The write is atomic, so a serving process
// polling the path for hot-swaps never observes a half-written model.
func SaveModel(path string, ds *Dataset, res *RFCovResult) error {
	return artifact.Save(path, res.Artifact(ds))
}

// LoadModel reads a .wcc artifact and checks it through the serving gate
// (server.Servable): a covariance-feature model implementing the streaming
// classifier contract, bundled with a scaler and a calibration that fit
// its window shape.
func LoadModel(path string) (*artifact.Artifact, error) {
	a, err := artifact.Load(path)
	if err != nil {
		return nil, err
	}
	if _, err := server.Servable(a); err != nil {
		return nil, fmt.Errorf("repro: %s: %w", path, err)
	}
	return a, nil
}

// RunExperiment regenerates a paper table by name (core.Tables lists them:
// "1", "2", "4", "5", "6", "7", "xgb", "fused", "ablations", or "all") under
// the named preset ("smoke", "scaled", "full") and returns the rendered
// table text.
func RunExperiment(table, preset string) (string, error) {
	p, err := core.PresetByName(preset)
	if err != nil {
		return "", err
	}
	tables, err := core.Tables(table)
	if err != nil {
		return "", err
	}
	sim, err := core.NewSimulator(p)
	if err != nil {
		return "", err
	}
	out := make([]string, len(tables))
	for i, t := range tables {
		if out[i], err = t.Run(sim, p, nil); err != nil {
			return "", err
		}
	}
	return strings.Join(out, "\n"), nil
}
