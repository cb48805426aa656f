package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
)

// FeaturePair holds matched train/test feature matrices plus labels, ready
// for the classical models.
type FeaturePair struct {
	TrainX *mat.Matrix
	TrainY []int
	TestX  *mat.Matrix
	TestY  []int
	// Scaler carries the training-set statistics the features were
	// standardised with, so serving paths can standardise live windows the
	// exact same way (it travels in the model artifact).
	Scaler *preprocess.StandardScaler
	// PCA carries the fitted projection when the PCA pipeline produced the
	// features (nil for the covariance pipeline); model artifacts bundle it
	// so the whole preprocessing chain travels with the model.
	PCA *preprocess.PCA
}

// RawSensorSamples flattens a dataset tensor's windows into one matrix of
// raw telemetry samples (rows are samples, columns sensors) — the input
// drift.FitReference consumes when calibrating the serving plane's
// input-drift reference histograms.
func RawSensorSamples(x *dataset.Tensor3) *mat.Matrix {
	out := mat.New(x.N*x.T, x.C)
	for i, v := range x.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// standardised flattens both splits and standardises them with
// training-set statistics, exactly the paper's first step.
func standardised(ch *dataset.Challenge) (trainZ, testZ *mat.Matrix, scaler *preprocess.StandardScaler, err error) {
	trainFlat := ch.Train.X.Flatten()
	testFlat := ch.Test.X.Flatten()
	scaler = &preprocess.StandardScaler{}
	trainZ, err = scaler.FitTransform(trainFlat)
	if err != nil {
		return nil, nil, nil, err
	}
	testZ, err = scaler.Transform(testFlat)
	if err != nil {
		return nil, nil, nil, err
	}
	return trainZ, testZ, scaler, nil
}

// SequenceTensors is the paper's RNN input (§V): both splits standardised
// with training-set statistics and nothing else, reshaped back to sequences
// and downsampled by stride (1 keeps every sample).
func SequenceTensors(ch *dataset.Challenge, stride int) (train, test *dataset.Tensor3, err error) {
	trainZ, testZ, _, err := standardised(ch)
	if err != nil {
		return nil, nil, err
	}
	return tensorFromFlat(trainZ, ch.Train.X).Downsample(stride), tensorFromFlat(testZ, ch.Test.X).Downsample(stride), nil
}

// tensorFromFlat reshapes a flattened n×(T·C) matrix back to like's shape.
func tensorFromFlat(z *mat.Matrix, like *dataset.Tensor3) *dataset.Tensor3 {
	out := dataset.NewTensor3(z.Rows, like.T, like.C)
	for i, v := range z.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// CovFeatures runs the paper's covariance pipeline: standardise, then embed
// every trial as the 28 unique sensor variances/covariances.
func CovFeatures(ch *dataset.Challenge) (*FeaturePair, error) {
	trainZ, testZ, scaler, err := standardised(ch)
	if err != nil {
		return nil, err
	}
	return covEmbedded(ch, trainZ, testZ, scaler)
}

// CovFeaturesWith runs the covariance pipeline against an already-fitted
// scaler instead of refitting one on the challenge's training split. The
// continual-learning retrain path (internal/adapt) uses it so a candidate
// artifact carries byte-identical scaler statistics to the serving fleet's:
// the hot-swap compatibility gate compares scalers (server.ServableModel),
// and buffered unknown windows were embedded by the serving scaler — a
// refitted one would shift every feature they are clustered and trained in.
func CovFeaturesWith(ch *dataset.Challenge, scaler *preprocess.StandardScaler) (*FeaturePair, error) {
	trainZ, err := scaler.Transform(ch.Train.X.Flatten())
	if err != nil {
		return nil, err
	}
	testZ, err := scaler.Transform(ch.Test.X.Flatten())
	if err != nil {
		return nil, err
	}
	return covEmbedded(ch, trainZ, testZ, scaler)
}

// covEmbedded embeds both standardised splits.
func covEmbedded(ch *dataset.Challenge, trainZ, testZ *mat.Matrix, scaler *preprocess.StandardScaler) (*FeaturePair, error) {
	t, c := ch.Train.X.T, ch.Train.X.C
	trainF, err := preprocess.CovarianceEmbed(trainZ, t, c)
	if err != nil {
		return nil, err
	}
	testF, err := preprocess.CovarianceEmbed(testZ, t, c)
	if err != nil {
		return nil, err
	}
	return &FeaturePair{TrainX: trainF, TrainY: ch.Train.Y, TestX: testF, TestY: ch.Test.Y, Scaler: scaler}, nil
}

// PCAFeatures runs the paper's PCA pipeline at the given dimension:
// standardise the flattened trials, fit PCA on the training split, project
// both splits.
func PCAFeatures(ch *dataset.Challenge, dim int, seed int64) (*FeaturePair, error) {
	trainZ, testZ, scaler, err := standardised(ch)
	if err != nil {
		return nil, err
	}
	if dim > trainZ.Rows-1 {
		return nil, fmt.Errorf("core: PCA dim %d too large for %d training trials", dim, trainZ.Rows)
	}
	pca, err := preprocess.FitPCA(trainZ, dim, seed)
	if err != nil {
		return nil, err
	}
	trainF, err := pca.Transform(trainZ)
	if err != nil {
		return nil, err
	}
	testF, err := pca.Transform(testZ)
	if err != nil {
		return nil, err
	}
	return &FeaturePair{TrainX: trainF, TrainY: ch.Train.Y, TestX: testF, TestY: ch.Test.Y, Scaler: scaler, PCA: pca}, nil
}

// CovFeatureNames labels the covariance embedding dimensions with DCGM
// sensor pairs, for the §IV-B importance analysis.
func CovFeatureNames() []string {
	sensors := make([]string, telemetry.NumGPUSensors)
	for s := telemetry.GPUSensor(0); s < telemetry.NumGPUSensors; s++ {
		sensors[s] = s.String()
	}
	return preprocess.CovariancePairNames(sensors)
}

// BuildDataset constructs one Table IV dataset: the challenge's 80/20 split
// shuffled by seed, then truncated to maxTrain/maxTest trials (0 = no cap).
// It is the one dataset-build path outside benchmark/: the experiment suite
// calls it with a preset's simulator, and every artifact producer reaches it
// through Provenance.Regenerate.
func BuildDataset(sim *telemetry.Simulator, spec dataset.Spec, seed int64, maxTrain, maxTest int) (*dataset.Challenge, error) {
	opts := dataset.DefaultBuildOptions()
	opts.Seed = seed
	ch, err := dataset.Build(sim, spec, opts)
	if err != nil {
		return nil, err
	}
	return capChallenge(ch, maxTrain, maxTest), nil
}

// capChallenge truncates splits to the preset budget (the split shuffle has
// already balanced classes).
func capChallenge(ch *dataset.Challenge, maxTrain, maxTest int) *dataset.Challenge {
	out := &dataset.Challenge{Spec: ch.Spec, Train: ch.Train, Test: ch.Test}
	if maxTrain > 0 && ch.Train.Len() > maxTrain {
		idx := make([]int, maxTrain)
		for i := range idx {
			idx[i] = i
		}
		out.Train = ch.Train.Select(idx)
	}
	if maxTest > 0 && ch.Test.Len() > maxTest {
		idx := make([]int, maxTest)
		for i := range idx {
			idx[i] = i
		}
		out.Test = ch.Test.Select(idx)
	}
	return out
}

// NewSimulator builds the simulator for a preset.
func NewSimulator(p Preset) (*telemetry.Simulator, error) {
	return Provenance{Scale: p.Scale, Seed: p.Seed}.Simulator()
}
