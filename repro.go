// Package repro is the public facade of the MIT Supercloud Workload
// Classification Challenge reproduction (IPDPS-W 2022, arXiv:2204.05839).
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// system inventory); this package re-exports the handful of entry points a
// downstream user needs:
//
//   - GenerateDataset: simulate the labelled dataset and extract one of the
//     seven Table IV challenge datasets (core.Provenance.Regenerate).
//   - TrainRFCov: the paper's best baseline (random forest on covariance
//     features), fitted and evaluated in one call — a view of
//     core.TrainArtifact, the one function wcctrain and the adapt
//     flywheel's retrain also make their artifacts through.
//   - Open-set serving: TrainRFCov also calibrates a drift.Calibration
//     (rejection threshold + input reference histograms), so a core built
//     from the result flags unknown workloads, and DriftStats /
//     GET /v1/drift report input drift against the training distribution.
//   - (*RFCovResult).Artifact / SaveModel / LoadModel: the trained pipeline
//     as one value — model + scaler + drift calibration + provenance, an
//     *artifact.Artifact — persisted as a versioned .wcc file and restored,
//     so serving starts in milliseconds instead of a training run.
//
// Serving starts from that one value: server.NewCore(artifact, shards)
// gates it and builds the sharded serving core, server.New puts the HTTP
// API over the core (cmd/wccserve does exactly this, cmd/wccload
// load-tests it; docs/API.md is the request/response reference), and
// Server.Install rolls a newer artifact into the live fleet with zero
// downtime through the same gate.
//
// The paper's tables are not a library call: cmd/wccbench regenerates them
// (core.Tables), and RESULTS.md is its scaled run, each reproduced cell next
// to the published one. For anything beyond these entry points — other
// baselines, custom grids, npz interop — import the internal packages
// directly; they are documented and tested as the real API surface.
package repro

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/forest"
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
	sim, ch, err := core.Provenance{Dataset: name, Scale: scale, Seed: seed}.Regenerate()
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
	// feature-distance cut point calibrated on the held-out test split's
	// embeddings, and input reference histograms over the raw training
	// windows. Serving fleets built from this result flag
	// unknown workloads and report input drift (see internal/drift).
	Drift *drift.Calibration
}

// metadata starts the record of an RF-Cov model trained on ds (the facade
// builds uncapped datasets).
func (ds *Dataset) metadata() artifact.Metadata {
	p := core.Provenance{Dataset: ds.Name, Scale: ds.Scale, Seed: ds.Seed}
	return p.Metadata(ds.Challenge.Train.X, "cov", "repro.TrainRFCov")
}

// TrainRFCov runs the paper's strongest baseline end to end: standardise,
// covariance-embed, fit a random forest, score the held-out test split and
// calibrate open-set rejection on it (core.TrainArtifact, the training path
// wcctrain and the adapt flywheel share).
func TrainRFCov(ds *Dataset, trees int, seed int64) (*RFCovResult, error) {
	fp, err := core.CovFeatures(ds.Challenge)
	if err != nil {
		return nil, err
	}
	f := forest.New(forest.Config{NumTrees: trees, Bootstrap: true, Seed: seed})
	fit := func() error { return f.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)) }
	a, held, err := core.TrainArtifact(ds.metadata(), fp, f, fit, core.RawSensorSamples(ds.Challenge.Train.X), drift.Options{})
	if err != nil {
		return nil, err
	}
	cm, err := metrics.NewConfusionMatrix(fp.TestY, held.Pred, int(telemetry.NumClasses))
	if err != nil {
		return nil, err
	}
	return &RFCovResult{Accuracy: a.Meta.Accuracy, Confusion: cm, Model: f, ClassNames: a.Meta.ClassNames, Scaler: a.Scaler, Drift: a.Drift}, nil
}

// Artifact bundles the trained pipeline with its provenance as the one
// model value serving consumes: server.NewCore boots a core from it,
// SaveModel persists it, and a reloaded copy serves bit-identically. ds is
// the dataset the result was trained on.
func (res *RFCovResult) Artifact(ds *Dataset) *artifact.Artifact {
	meta := ds.metadata()
	meta.ClassNames = res.ClassNames
	a, err := core.Bundle(meta, res.Model, res.Accuracy)
	if err != nil {
		panic(err) // unreachable: a *forest.Classifier always has a kind
	}
	a.Scaler, a.Drift = res.Scaler, res.Drift
	return a
}

// SaveModel writes a trained RF-Cov pipeline to path as a versioned .wcc
// artifact (see Artifact). The write is atomic, so a serving process
// polling the path for hot-swaps never observes a half-written model.
func SaveModel(path string, ds *Dataset, res *RFCovResult) error {
	return artifact.Save(path, res.Artifact(ds))
}

// LoadModel reads a .wcc artifact and checks it through the serving gate
// (server.Servable): a covariance-feature model — a forest or a booster, the
// kinds a .wcc can carry — bundled with a scaler and a calibration that fit
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
