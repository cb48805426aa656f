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
//   - NewFleet: a single in-process fleet monitor classifying live
//     telemetry from many concurrent jobs — the reference the serving
//     core is pinned bit-identical to.
//   - NewShardedFleet: the same fleet partitioned across independent
//     monitor shards with per-shard tick loops — the serving core that
//     scales with the machine's cores instead of one lock.
//   - NewServer: the HTTP serving layer over the sharded core — NDJSON
//     batch ingest with bounded-queue backpressure, prediction reads,
//     health and shard-labelled Prometheus-style metrics, graceful drain
//     (cmd/wccserve serves it, cmd/wccload load-tests it; docs/API.md is
//     the request/response reference).
//   - Open-set serving: TrainRFCov also calibrates a drift.Calibration
//     (rejection threshold + input reference histograms), so every fleet
//     built from the result flags unknown workloads, and DriftStats /
//     GET /v1/drift report input drift against the training distribution.
//   - SaveModel / LoadModel: persist a trained RF-Cov pipeline as a
//     versioned .wcc artifact (model + scaler + drift calibration +
//     provenance) and restore it,
//     so serving starts in milliseconds instead of a training run;
//     LoadedModel.NewShardedFleet builds the serving core straight from
//     the artifact, and its SwapClassifierDrift rolls a newer artifact's
//     model and calibration into a live fleet with zero downtime.
//
// For anything beyond these — other baselines, custom grids, npz interop —
// import the internal packages directly; they are documented and tested as
// the real API surface.
package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
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
	opts := dataset.DefaultBuildOptions()
	opts.Seed = seed
	ch, err := dataset.Build(sim, spec, opts)
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

// NewFleet builds a fleet monitor that serves the trained model over live
// telemetry shaped like the dataset's windows (540×7 for the challenge
// datasets): jobs stream samples through Ingest from any number of
// goroutines, and each Tick classifies every changed window in one batched
// model call. The live windows are standardised with the very scaler the
// offline pipeline fitted (res.Scaler), so fleet predictions match what
// TrainRFCov's model would say about the same window offline.
func NewFleet(ds *Dataset, res *RFCovResult) (*fleet.Monitor, error) {
	return fleet.New(fleet.Config{
		Window:  ds.Challenge.Train.X.T,
		Sensors: ds.Challenge.Train.X.C,
		Scaler:  res.Scaler,
		Model:   res.Model,
		Drift:   res.Drift,
	})
}

// NewShardedFleet builds the sharded serving core over the trained model:
// jobs are hash-routed to independent monitor shards (shards ≤ 0 selects
// GOMAXPROCS) that tick on independent goroutines, classifier hot-swaps
// install atomically on every shard, and predictions stay bit-identical to
// a single NewFleet monitor fed the same streams — sharding changes
// throughput, not predictions.
func NewShardedFleet(ds *Dataset, res *RFCovResult, shards int) (*shard.Core, error) {
	return shard.New(shard.Config{
		Window:  ds.Challenge.Train.X.T,
		Sensors: ds.Challenge.Train.X.C,
		Scaler:  res.Scaler,
		Model:   res.Model,
		Shards:  shards,
		Drift:   res.Drift,
	})
}

// NewServer wraps a fleet monitor in the HTTP serving layer: NDJSON batch
// ingest with per-request error accounting and bounded-queue backpressure
// (429 + Retry-After), per-job prediction reads and a fleet snapshot, job
// lifecycle (DELETE ends a job; idle eviction is configurable on the
// underlying server.Config), /healthz, and Prometheus-style /metrics.
// Mount the returned server's Handler on an http.Server and Close it after
// the listener shuts down — the final inference tick flushes pending
// windows, so a drained stream's last samples still produce predictions.
// classNames optionally labels predictions; tickEvery ≤ 0 selects the
// default inference cadence. m is a *shard.Core (NewShardedFleet): the layer
// runs one tick loop per shard and labels /metrics by shard. For the full
// knob set import internal/server directly.
func NewServer(m server.Monitor, classNames []string, tickEvery time.Duration) (*server.Server, error) {
	return server.New(server.Config{Monitor: m, ClassNames: classNames, TickEvery: tickEvery})
}

// SaveModel writes a trained RF-Cov pipeline to path as a versioned .wcc
// artifact: the fitted forest, the scaler its features were standardised
// with, and training provenance (dataset, scale, seed, class names, test
// accuracy). The write is atomic, so a serving process polling the path for
// hot-swaps never observes a half-written model.
func SaveModel(path string, ds *Dataset, res *RFCovResult) error {
	return artifact.Save(path, &artifact.Artifact{
		Meta: artifact.Metadata{
			ClassNames:  res.ClassNames,
			Features:    "cov",
			Window:      ds.Challenge.Train.X.T,
			Sensors:     ds.Challenge.Train.X.C,
			Dataset:     ds.Name,
			Scale:       ds.Scale,
			Seed:        ds.Seed,
			Accuracy:    res.Accuracy,
			CreatedUnix: time.Now().Unix(),
			Tool:        "repro.SaveModel",
		},
		Scaler: res.Scaler,
		Drift:  res.Drift,
		Model:  res.Model,
	})
}

// LoadedModel is a deserialised serving artifact.
type LoadedModel struct {
	// Artifact holds the metadata, scaler and model as decoded.
	Artifact *artifact.Artifact
}

// LoadModel reads a .wcc artifact and validates it is servable over live
// telemetry: a covariance-feature model implementing the streaming
// classifier contract, bundled with its scaler.
func LoadModel(path string) (*LoadedModel, error) {
	a, err := artifact.Load(path)
	if err != nil {
		return nil, err
	}
	if a.Meta.Features != "cov" {
		return nil, fmt.Errorf("repro: artifact has %q features; live serving needs a covariance-feature model", a.Meta.Features)
	}
	if a.Scaler == nil {
		return nil, errors.New("repro: artifact carries no scaler; live windows cannot be standardised")
	}
	if a.Meta.Window < 2 || a.Meta.Sensors < 1 {
		return nil, fmt.Errorf("repro: artifact window shape %dx%d is invalid", a.Meta.Window, a.Meta.Sensors)
	}
	if _, ok := a.Model.(stream.Classifier); !ok {
		return nil, fmt.Errorf("repro: %s models cannot serve streaming windows", a.Meta.Kind)
	}
	return &LoadedModel{Artifact: a}, nil
}

// Classifier returns the artifact's model as a streaming classifier.
func (lm *LoadedModel) Classifier() stream.Classifier {
	return lm.Artifact.Model.(stream.Classifier)
}

// NewFleet builds a fleet monitor serving the loaded artifact, the
// zero-training counterpart of NewFleet: window shape and scaler come from
// the artifact, so the monitor classifies live telemetry exactly as the
// training-time pipeline would.
func (lm *LoadedModel) NewFleet() (*fleet.Monitor, error) {
	return fleet.New(fleet.Config{
		Window:  lm.Artifact.Meta.Window,
		Sensors: lm.Artifact.Meta.Sensors,
		Scaler:  lm.Artifact.Scaler,
		Model:   lm.Classifier(),
		Drift:   lm.Artifact.Drift,
	})
}

// NewShardedFleet builds the sharded serving core straight from the
// artifact, the zero-training counterpart of NewShardedFleet: window
// shape and scaler come from the artifact, shards ≤ 0 selects GOMAXPROCS.
func (lm *LoadedModel) NewShardedFleet(shards int) (*shard.Core, error) {
	return shard.New(shard.Config{
		Window:  lm.Artifact.Meta.Window,
		Sensors: lm.Artifact.Meta.Sensors,
		Scaler:  lm.Artifact.Scaler,
		Model:   lm.Classifier(),
		Shards:  shards,
		Drift:   lm.Artifact.Drift,
	})
}

// RunExperiment regenerates a paper table by name ("1", "2", "4", "5", "6",
// "7", "xgb") under the named preset ("smoke", "scaled", "full") and
// returns the rendered table text.
func RunExperiment(table, preset string) (string, error) {
	p, err := core.PresetByName(preset)
	if err != nil {
		return "", err
	}
	sim, err := core.NewSimulator(p)
	if err != nil {
		return "", err
	}
	switch table {
	case "1":
		return core.FormatTable1(core.RunTable1(sim)), nil
	case "2", "3":
		return core.FormatTables2And3(), nil
	case "4":
		rows, err := core.RunTable4(sim, p.Seed)
		if err != nil {
			return "", err
		}
		return core.FormatTable4(rows), nil
	case "5":
		res, err := core.RunTable5(sim, p, nil)
		if err != nil {
			return "", err
		}
		return core.FormatTable5(res), nil
	case "6":
		res, err := core.RunTable6(sim, p, nil)
		if err != nil {
			return "", err
		}
		return core.FormatTable6(res), nil
	case "7", "8", "9":
		return core.FormatTables789(core.RunTables789(sim)), nil
	case "xgb":
		res, err := core.RunXGBoost(sim, p, nil)
		if err != nil {
			return "", err
		}
		return core.FormatXGB(res), nil
	}
	return "", fmt.Errorf("repro: unknown table %q", table)
}
