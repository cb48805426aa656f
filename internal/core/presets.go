// Package core ties the substrates together into the MIT Supercloud
// Workload Classification Challenge: it builds the seven Table IV datasets
// from the simulated labelled dataset, runs every baseline of Sections IV
// and V under the paper's model-selection protocol, and renders each of the
// paper's tables (I-IX) from measured results.
package core

import "fmt"

// XGBParams is one XGBoost grid point (the paper grid-searches γ, α and λ).
type XGBParams struct {
	Gamma, Lambda, Alpha float64
}

func (p XGBParams) String() string {
	return fmt.Sprintf("gamma=%g lambda=%g alpha=%g", p.Gamma, p.Lambda, p.Alpha)
}

// RNNPreset controls the Section V training runs.
type RNNPreset struct {
	// HiddenScale divides the paper's hidden sizes (128/256/512) so the
	// pure-Go implementation fits the compute budget; 1 reproduces the
	// paper's architecture exactly.
	HiddenScale int
	// Stride downsamples the 540-step windows before the RNNs (1 = none).
	Stride int
	// MaxTrain / MaxTest cap the trials used.
	MaxTrain, MaxTest int
	Epochs            int
	Patience          int
	BatchSize         int
	CycleEpochs       int
	LRMax, LRMin      float64
}

// Preset bundles every knob of the experiment suite. The paper's exact
// protocol is PresetFull; PresetScaled fits a single CPU core; PresetSmoke
// is for tests.
type Preset struct {
	Name string

	// Scale is the labelled-dataset generation scale (1 = 3,430 jobs).
	Scale float64
	Seed  int64

	// MaxTrain/MaxTest cap dataset sizes after the 80/20 split
	// (0 = no cap).
	MaxTrain, MaxTest int

	// Folds is the SVM/RF grid-search fold count (paper: 10).
	Folds int
	// XGBFolds is the XGBoost grid-search fold count (paper: 5).
	XGBFolds int

	// PCADims is the PCA dimension grid (paper: 28, 64, 256, 512).
	PCADims []int
	// SVMCs is the SVC regularisation grid (paper: 0.1, 1, 10).
	SVMCs []float64
	// RFTrees is the forest-size grid (paper: 50, 100, 250).
	RFTrees []int
	// XGBGrid is the XGBoost regularisation grid.
	XGBGrid []XGBParams
	// XGBRounds is the boosting-round count (paper: 40).
	XGBRounds int

	RNN RNNPreset
}

// PresetSmoke is the CI preset: everything tiny, seconds of CPU.
func PresetSmoke() Preset {
	return Preset{
		Name:     "smoke",
		Scale:    0.05,
		Seed:     1,
		MaxTrain: 150,
		MaxTest:  80,
		Folds:    3,
		XGBFolds: 3,
		PCADims:  []int{16, 28},
		SVMCs:    []float64{1},
		RFTrees:  []int{25},
		XGBGrid: []XGBParams{
			{Gamma: 0, Lambda: 1, Alpha: 0},
			{Gamma: 0.1, Lambda: 1, Alpha: 0.1},
		},
		XGBRounds: 10,
		RNN: RNNPreset{
			HiddenScale: 16, // 128→8
			Stride:      20, // 540→27 steps
			MaxTrain:    80,
			MaxTest:     60,
			Epochs:      3,
			Patience:    3,
			BatchSize:   16,
			CycleEpochs: 3,
			LRMax:       3e-3,
			LRMin:       1e-4,
		},
	}
}

// PresetScaled is the default: the whole suite runs on one CPU core in tens
// of minutes. RESULTS.md is its output, each cell beside the paper's; the
// paper's orderings it does not keep are listed in the repository root's
// TestResultsAgainstThePaper.
func PresetScaled() Preset {
	return Preset{
		Name:     "scaled",
		Scale:    0.30,
		Seed:     1,
		MaxTrain: 1400,
		MaxTest:  600,
		Folds:    5,
		XGBFolds: 5,
		PCADims:  []int{28, 64, 256},
		SVMCs:    []float64{0.1, 1, 10},
		RFTrees:  []int{50, 100, 250},
		XGBGrid: []XGBParams{
			{Gamma: 0, Lambda: 1, Alpha: 0},
			{Gamma: 0, Lambda: 1, Alpha: 0.5},
			{Gamma: 0, Lambda: 5, Alpha: 0},
			{Gamma: 0.5, Lambda: 1, Alpha: 0},
			{Gamma: 0.5, Lambda: 5, Alpha: 0.5},
		},
		XGBRounds: 40,
		RNN: RNNPreset{
			HiddenScale: 4, // 128→32, 256→64, 512→128
			Stride:      10,
			MaxTrain:    300,
			MaxTest:     300,
			Epochs:      10,
			Patience:    6,
			BatchSize:   32,
			CycleEpochs: 5,
			LRMax:       3e-3,
			LRMin:       1e-4,
		},
	}
}

// PresetFull is the paper's protocol: full-scale dataset, full grids,
// 10-fold SVM/RF search, the exact RNN architectures, 1000 epochs with
// patience 100. Budget hours of CPU.
func PresetFull() Preset {
	return Preset{
		Name:     "full",
		Scale:    1.0,
		Seed:     1,
		Folds:    10,
		XGBFolds: 5,
		PCADims:  []int{28, 64, 256, 512},
		SVMCs:    []float64{0.1, 1, 10},
		RFTrees:  []int{50, 100, 250},
		XGBGrid: []XGBParams{
			{Gamma: 0, Lambda: 1, Alpha: 0},
			{Gamma: 0, Lambda: 1, Alpha: 0.5},
			{Gamma: 0, Lambda: 5, Alpha: 0},
			{Gamma: 0, Lambda: 5, Alpha: 0.5},
			{Gamma: 0.5, Lambda: 1, Alpha: 0},
			{Gamma: 0.5, Lambda: 1, Alpha: 0.5},
			{Gamma: 0.5, Lambda: 5, Alpha: 0},
			{Gamma: 0.5, Lambda: 5, Alpha: 0.5},
		},
		XGBRounds: 40,
		RNN: RNNPreset{
			HiddenScale: 1,
			Stride:      1,
			Epochs:      1000,
			Patience:    100,
			BatchSize:   32,
			CycleEpochs: 10,
			LRMax:       3e-3,
			LRMin:       1e-5,
		},
	}
}

// PresetByName resolves smoke/scaled/full.
func PresetByName(name string) (Preset, error) {
	switch name {
	case "smoke":
		return PresetSmoke(), nil
	case "scaled":
		return PresetScaled(), nil
	case "full":
		return PresetFull(), nil
	}
	return Preset{}, fmt.Errorf("core: unknown preset %q (want smoke, scaled or full)", name)
}
