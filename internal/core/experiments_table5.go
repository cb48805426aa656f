package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/modelsel"
	"repro/internal/svm"
	"repro/internal/telemetry"
)

// Table5Model identifies one of the four Table V rows.
type Table5Model string

// The four baselines of Table V.
const (
	SVMPCA Table5Model = "SVM PCA"
	SVMCov Table5Model = "SVM Cov."
	RFPCA  Table5Model = "RF PCA"
	RFCov  Table5Model = "RF Cov."
)

// Table5Models lists the rows in the paper's order.
var Table5Models = []Table5Model{SVMPCA, SVMCov, RFPCA, RFCov}

// Table5Cell is the outcome of one (model, dataset) cell: the test accuracy
// of the grid-search winner and the winning hyper-parameters.
type Table5Cell struct {
	Accuracy   float64
	BestParams string
	CVScore    float64
}

// Table5Result maps model → dataset name → cell.
type Table5Result struct {
	Cells map[Table5Model]map[string]Table5Cell
	// Datasets preserves column order.
	Datasets []string
}

// svmCandidates builds the SVC grid (C values) for the given features.
func svmCandidates(cs []float64, seed int64) []modelsel.Candidate {
	var cands []modelsel.Candidate
	for _, c := range cs {
		c := c
		cands = append(cands, modelsel.Candidate{
			Name: fmt.Sprintf("C=%g", c),
			Fit: func(trainX *mat.Matrix, trainY []int, testX *mat.Matrix) ([]int, error) {
				m := svm.New(svm.Config{C: c, Seed: seed})
				if err := m.Fit(trainX, trainY); err != nil {
					return nil, err
				}
				return m.Predict(testX)
			},
		})
	}
	return cands
}

// rfCandidates builds the random-forest grid (tree counts).
func rfCandidates(trees []int, numClasses int, seed int64) []modelsel.Candidate {
	var cands []modelsel.Candidate
	for _, n := range trees {
		n := n
		cands = append(cands, modelsel.Candidate{
			Name: fmt.Sprintf("trees=%d", n),
			Fit: func(trainX *mat.Matrix, trainY []int, testX *mat.Matrix) ([]int, error) {
				f := forest.New(forest.Config{NumTrees: n, Bootstrap: true, Seed: seed})
				if err := f.Fit(trainX, trainY, numClasses); err != nil {
					return nil, err
				}
				return f.Predict(testX)
			},
		})
	}
	return cands
}

// runGrid performs the cross-validated search and then scores the winner on
// the held-out test split.
func runGrid(cands []modelsel.Candidate, fp *FeaturePair, folds int, seed int64) (Table5Cell, error) {
	gs := &modelsel.GridSearch{Folds: folds, Stratify: true, Seed: seed}
	results, best, err := gs.Run(cands, fp.TrainX, fp.TrainY)
	if err != nil {
		return Table5Cell{}, err
	}
	pred, err := best.Fit(fp.TrainX, fp.TrainY, fp.TestX)
	if err != nil {
		return Table5Cell{}, err
	}
	acc, err := metrics.Accuracy(fp.TestY, pred)
	if err != nil {
		return Table5Cell{}, err
	}
	return Table5Cell{Accuracy: acc, BestParams: results[0].Name, CVScore: results[0].MeanScore}, nil
}

// runPCAGrid searches jointly over PCA dimensions and model grids: for each
// dimension the features are re-projected and the model grid is
// cross-validated; the (dim, params) pair with the best CV score wins and
// is scored on test.
func runPCAGrid(ch *dataset.Challenge, dims []int,
	mkCands func() []modelsel.Candidate, folds int, seed int64) (Table5Cell, error) {
	bestCV := -1.0
	var bestCell Table5Cell
	for _, dim := range dims {
		fp, err := PCAFeatures(ch, dim, seed)
		if err != nil {
			return Table5Cell{}, err
		}
		cell, err := runGrid(mkCands(), fp, folds, seed)
		if err != nil {
			return Table5Cell{}, err
		}
		if cell.CVScore > bestCV {
			bestCV = cell.CVScore
			cell.BestParams = fmt.Sprintf("pca=%d %s", dim, cell.BestParams)
			bestCell = cell
		}
	}
	return bestCell, nil
}

// RunTable5 reproduces Table V: SVM and RF, each with PCA and covariance
// dimensionality reduction, grid-searched with stratified k-fold CV on all
// seven datasets, reporting held-out test accuracy.
func RunTable5(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (*Table5Result, error) {
	res := &Table5Result{Cells: map[Table5Model]map[string]Table5Cell{}}
	for _, m := range Table5Models {
		res.Cells[m] = map[string]Table5Cell{}
	}
	for _, spec := range dataset.ChallengeSpecs {
		res.Datasets = append(res.Datasets, spec.Name)
		ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
		if err != nil {
			return nil, err
		}
		numClasses := int(telemetry.NumClasses)

		cov, err := CovFeatures(ch)
		if err != nil {
			return nil, err
		}

		cell, err := runGrid(svmCandidates(p.SVMCs, p.Seed), cov, p.Folds, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: %s SVM Cov: %w", spec.Name, err)
		}
		res.Cells[SVMCov][spec.Name] = cell
		if logf != nil {
			logf("table5 %-12s %-8s acc=%.4f (%s)", spec.Name, SVMCov, cell.Accuracy, cell.BestParams)
		}

		cell, err = runGrid(rfCandidates(p.RFTrees, numClasses, p.Seed), cov, p.Folds, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: %s RF Cov: %w", spec.Name, err)
		}
		res.Cells[RFCov][spec.Name] = cell
		if logf != nil {
			logf("table5 %-12s %-8s acc=%.4f (%s)", spec.Name, RFCov, cell.Accuracy, cell.BestParams)
		}

		cell, err = runPCAGrid(ch, p.PCADims, func() []modelsel.Candidate {
			return svmCandidates(p.SVMCs, p.Seed)
		}, p.Folds, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: %s SVM PCA: %w", spec.Name, err)
		}
		res.Cells[SVMPCA][spec.Name] = cell
		if logf != nil {
			logf("table5 %-12s %-8s acc=%.4f (%s)", spec.Name, SVMPCA, cell.Accuracy, cell.BestParams)
		}

		cell, err = runPCAGrid(ch, p.PCADims, func() []modelsel.Candidate {
			return rfCandidates(p.RFTrees, numClasses, p.Seed)
		}, p.Folds, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: %s RF PCA: %w", spec.Name, err)
		}
		res.Cells[RFPCA][spec.Name] = cell
		if logf != nil {
			logf("table5 %-12s %-8s acc=%.4f (%s)", spec.Name, RFPCA, cell.Accuracy, cell.BestParams)
		}
	}
	return res, nil
}

// paperTable5 holds the published accuracies for side-by-side reporting.
var paperTable5 = map[Table5Model]map[string]float64{
	SVMPCA: {"60-start-1": 82.13, "60-middle-1": 80.84, "60-random-1": 76.62, "60-random-2": 75.32, "60-random-3": 76.78, "60-random-4": 75.29, "60-random-5": 75.46},
	SVMCov: {"60-start-1": 67.24, "60-middle-1": 73.21, "60-random-1": 71.66, "60-random-2": 71.32, "60-random-3": 71.05, "60-random-4": 70.55, "60-random-5": 70.61},
	RFPCA:  {"60-start-1": 83.17, "60-middle-1": 89.76, "60-random-1": 85.58, "60-random-2": 86.69, "60-random-3": 86.51, "60-random-4": 86.31, "60-random-5": 86.42},
	RFCov:  {"60-start-1": 81.80, "60-middle-1": 93.02, "60-random-1": 90.05, "60-random-2": 90.64, "60-random-3": 90.01, "60-random-4": 90.73, "60-random-5": 90.90},
}

// PaperTable5 exposes the published Table V accuracies (percent).
func PaperTable5() map[Table5Model]map[string]float64 { return paperTable5 }

// FormatTable5 renders measured accuracies with the paper's values beside
// them.
func FormatTable5(res *Table5Result) string {
	headers := []string{"Model"}
	for _, d := range res.Datasets {
		headers = append(headers, shortName(d))
	}
	var cells [][]string
	for _, m := range Table5Models {
		row := []string{string(m)}
		for _, d := range res.Datasets {
			row = append(row, pct(res.Cells[m][d].Accuracy))
		}
		cells = append(cells, row)
		paperRow := []string{"  (paper)"}
		for _, d := range res.Datasets {
			paperRow = append(paperRow, fmt.Sprintf("%.2f", paperTable5[m][d]))
		}
		cells = append(cells, paperRow)
	}
	return RenderTable("Table V: SVM and RF test accuracy (%)", headers, cells)
}

func shortName(d string) string {
	switch d {
	case "60-start-1":
		return "Start"
	case "60-middle-1":
		return "Middle"
	default:
		return "R" + d[len(d)-1:]
	}
}
