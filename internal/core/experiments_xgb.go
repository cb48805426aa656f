package core

import (
	"fmt"
	"log/slog"
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
func RunXGBoost(sim *telemetry.Simulator, p Preset) (*XGBResult, error) {
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
				m := xgb.New(xgb.Config{NumRounds: p.XGBRounds, Gamma: gp.Gamma, Lambda: gp.Lambda, Alpha: gp.Alpha})
				if err := m.Fit(trainX, trainY, numClasses, nil, nil); err != nil {
					return nil, err
				}
				return m.Predict(testX)
			},
		})
	}
	gs := &modelsel.GridSearch{Folds: p.XGBFolds, Seed: p.Seed}
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
	slog.Info("xgboost grid winner", "params", bestName, "cv", results[0].MeanScore)

	// Refit the winner on the full training split with eval tracking.
	final := xgb.New(xgb.Config{NumRounds: p.XGBRounds, Gamma: bestParams.Gamma, Lambda: bestParams.Lambda, Alpha: bestParams.Alpha})
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

// FormatXGB renders the §IV-B results: the accuracy against the paper's,
// the test accuracy every 5th round (the paper's plateau at about 40), and
// the gain-importance ranking.
func FormatXGB(res *XGBResult) string {
	var b strings.Builder
	b.WriteString(renderAgainstPaper("§IV-B: XGBoost test accuracy (%), covariance features",
		[]againstPaper{{"60-random-1", "XGBoost", PaperXGBAccuracy, res.Accuracy}}))
	fmt.Fprintf(&b, "\nBest grid point %s (cv %.4f), %d rounds, final train loss %.4f.\n\n",
		res.BestParams, res.CVScore, res.Rounds, res.FinalLoss)
	var rounds [][]string
	for r := 5; r <= len(res.EvalAccuracy); r += 5 {
		rounds = append(rounds, []string{fmt.Sprint(r), pct(res.EvalAccuracy[r-1])})
	}
	b.WriteString(RenderTable("§IV-B: test accuracy by boosting round (%)", []string{"round", "ours"}, rounds))
	var top [][]string
	for i, name := range res.TopFeatures {
		top = append(top, []string{fmt.Sprint(i + 1), name, fmt.Sprintf("%.3f", res.TopShares[i])})
	}
	b.WriteString("\n" + RenderTable("§IV-B: top-3 covariances by gain importance", []string{"rank", "feature", "share"}, top))
	b.WriteString("\nThe paper's top 3 are cov(gpu util, cpu util), var(gpu util) and var(power draw). " +
		"The challenge tensors carry GPU sensors only; `-table fused` adds the CPU series.\n")
	return b.String()
}
