package core

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/modelsel"
	"repro/internal/telemetry"
	"repro/internal/xgb"
)

// XGBResult is the outcome of the §IV-B experiment: XGBoost on the
// covariance features of 60-random-1.
type XGBResult struct {
	Accuracy     float64
	BestParams   string
	CVScore      float64
	Rounds       int
	FinalLoss    float64 // train softmax loss after the last round
	TopFeatures  []string
	TopShares    []float64 // normalised gain importances of TopFeatures
	EvalAccuracy []float64 // per-round test accuracy (plateau analysis)
}

// PaperXGBAccuracy is the published §IV-B test accuracy (%).
const PaperXGBAccuracy = 88.47

// RunXGBoost reproduces §IV-B: standardisation + covariance reduction on
// 60-random-1, 5-fold grid search over γ/λ/α, 40 boosting rounds, and the
// gain-importance ranking of sensor covariances.
func RunXGBoost(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (*XGBResult, error) {
	spec, ok := dataset.SpecByName("60-random-1")
	if !ok {
		return nil, fmt.Errorf("core: 60-random-1 spec missing")
	}
	ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		return nil, err
	}
	fp, err := CovFeatures(ch)
	if err != nil {
		return nil, err
	}
	numClasses := int(telemetry.NumClasses)

	var cands []modelsel.Candidate
	for _, gp := range p.XGBGrid {
		gp := gp
		cands = append(cands, modelsel.Candidate{
			Name: gp.String(),
			Fit: func(trainX *mat.Matrix, trainY []int, testX *mat.Matrix) ([]int, error) {
				m := xgb.New(xgb.Config{
					NumRounds: p.XGBRounds, LearningRate: 0.3, MaxDepth: 6,
					Gamma: gp.Gamma, Lambda: gp.Lambda, Alpha: gp.Alpha,
					MinChildWeight: 1, Subsample: 1, Seed: p.Seed,
				})
				if err := m.Fit(trainX, trainY, numClasses, nil, nil); err != nil {
					return nil, err
				}
				return m.Predict(testX)
			},
		})
	}
	gs := &modelsel.GridSearch{Folds: p.XGBFolds, Stratify: true, Seed: p.Seed}
	results, _, err := gs.Run(cands, fp.TrainX, fp.TrainY)
	if err != nil {
		return nil, err
	}
	bestName := results[0].Name
	var bestParams XGBParams
	for _, gp := range p.XGBGrid {
		if gp.String() == bestName {
			bestParams = gp
			break
		}
	}
	if logf != nil {
		logf("xgboost grid winner: %s (cv %.4f)", bestName, results[0].MeanScore)
	}

	// Refit the winner on the full training split with eval tracking.
	final := xgb.New(xgb.Config{
		NumRounds: p.XGBRounds, LearningRate: 0.3, MaxDepth: 6,
		Gamma: bestParams.Gamma, Lambda: bestParams.Lambda, Alpha: bestParams.Alpha,
		MinChildWeight: 1, Subsample: 1, Seed: p.Seed,
	})
	if err := final.Fit(fp.TrainX, fp.TrainY, numClasses, fp.TestX, fp.TestY); err != nil {
		return nil, err
	}
	pred, err := final.Predict(fp.TestX)
	if err != nil {
		return nil, err
	}
	acc, err := metrics.Accuracy(fp.TestY, pred)
	if err != nil {
		return nil, err
	}

	names := CovFeatureNames()
	top := final.TopFeatures(xgb.ImportanceGain, 3)
	imp := final.FeatureImportances(xgb.ImportanceGain)
	res := &XGBResult{
		Accuracy:     acc,
		BestParams:   bestName,
		CVScore:      results[0].MeanScore,
		Rounds:       final.NumRounds(),
		FinalLoss:    final.TrainLoss[len(final.TrainLoss)-1],
		EvalAccuracy: final.EvalAccuracy,
	}
	for _, f := range top {
		res.TopFeatures = append(res.TopFeatures, names[f])
		res.TopShares = append(res.TopShares, imp[f])
	}
	return res, nil
}

// FormatXGB renders the §IV-B result block.
func FormatXGB(res *XGBResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "XGBoost on 60-random-1 (covariance features)\n")
	fmt.Fprintf(&b, "  test accuracy: %s%%   (paper: %.2f%%)\n", pct(res.Accuracy), PaperXGBAccuracy)
	fmt.Fprintf(&b, "  best grid point: %s (cv %.4f), %d rounds, final train loss %.4f\n",
		res.BestParams, res.CVScore, res.Rounds, res.FinalLoss)
	fmt.Fprintf(&b, "  top-3 covariances by gain importance:\n")
	for i, name := range res.TopFeatures {
		fmt.Fprintf(&b, "    %d. %-55s %.3f\n", i+1, name, res.TopShares[i])
	}
	fmt.Fprintf(&b, "  paper's top-3: cov(gpu util, cpu util)*, var(gpu util), var(power draw)\n")
	fmt.Fprintf(&b, "  * the challenge tensors carry GPU sensors only; the closest\n")
	fmt.Fprintf(&b, "    available pairing is cov(utilization_gpu_pct, utilization_memory_pct)\n")
	return b.String()
}
