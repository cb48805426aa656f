package core

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
	"repro/internal/xgb"
)

// Fused CPU+GPU features.
//
// The challenge tensors are GPU-only, yet the paper's §IV-B names the
// covariance between GPU utilization and *CPU* utilization as the single
// most important feature — which its authors could compute because the
// labelled dataset also ships host-side Slurm profiling. This experiment
// rebuilds that setting: each GPU window is joined with its node's CPU
// series over the same time span (sample-and-hold upsampled from 0.1 Hz to
// 9 Hz), giving 15-sensor trials whose covariance embedding contains the
// cross-device entries the paper ranks.

// FusedSensors is the fused channel count: 7 GPU + 8 CPU.
const FusedSensors = int(telemetry.NumGPUSensors) + int(telemetry.NumCPUSensors)

// FusedSensorNames lists the fused channel names in tensor order.
func FusedSensorNames() []string {
	names := make([]string, 0, FusedSensors)
	for s := telemetry.GPUSensor(0); s < telemetry.NumGPUSensors; s++ {
		names = append(names, s.String())
	}
	for s := telemetry.CPUSensor(0); s < telemetry.NumCPUSensors; s++ {
		names = append(names, s.String())
	}
	return names
}

// fusedTensor joins each trial's GPU window with its node's CPU telemetry.
// Cumulative CPU counters (CPUTime, Pages, ReadMB, WriteMB) are differenced
// into per-interval rates first, since raw monotone counters would swamp
// the covariance with trend.
func fusedTensor(sim *telemetry.Simulator, set *dataset.Set) (*dataset.Tensor3, error) {
	jobsByID := make(map[int]*telemetry.Job, len(sim.Jobs()))
	for _, j := range sim.Jobs() {
		jobsByID[j.ID] = j
	}
	out := dataset.NewTensor3(set.Len(), set.X.T, FusedSensors)
	gpuC := int(telemetry.NumGPUSensors)

	for i := 0; i < set.Len(); i++ {
		job, ok := jobsByID[set.JobIDs[i]]
		if !ok {
			return nil, fmt.Errorf("core: trial %d references unknown job %d", i, set.JobIDs[i])
		}
		node := set.GPUs[i] / telemetry.GPUsPerNode
		cpu, err := job.CPUSeries(node)
		if err != nil {
			return nil, err
		}
		rates := cpuRates(cpu)

		t0 := set.T0s[i]
		for t := 0; t < set.X.T; t++ {
			for c := 0; c < gpuC; c++ {
				out.Set(i, t, c, set.X.At(i, t, c))
			}
			// Sample-and-hold: the CPU sample covering this GPU timestamp.
			abs := t0 + float64(t)*telemetry.GPUSampleDT
			row := int(abs / telemetry.CPUSampleDT)
			if row >= rates.Rows {
				row = rates.Rows - 1
			}
			for c := 0; c < int(telemetry.NumCPUSensors); c++ {
				out.Set(i, t, gpuC+c, rates.At(row, c))
			}
		}
	}
	return out, nil
}

// cpuRates differences the cumulative CPU counters into per-interval rates,
// leaving gauge columns untouched.
func cpuRates(cpu *mat.Matrix) *mat.Matrix {
	out := cpu.Clone()
	counters := []telemetry.CPUSensor{telemetry.CPUTime, telemetry.Pages, telemetry.ReadMB, telemetry.WriteMB}
	for _, s := range counters {
		col := int(s)
		prev := 0.0
		for i := 0; i < cpu.Rows; i++ {
			cur := cpu.At(i, col)
			out.Set(i, col, cur-prev)
			prev = cur
		}
	}
	return out
}

// FusedCovFeatures builds the 120-dimensional fused covariance embedding
// (15 sensors → 15·16/2 entries) for both splits of a challenge dataset.
func FusedCovFeatures(sim *telemetry.Simulator, ch *dataset.Challenge) (*FeaturePair, error) {
	trainT, err := fusedTensor(sim, ch.Train)
	if err != nil {
		return nil, err
	}
	testT, err := fusedTensor(sim, ch.Test)
	if err != nil {
		return nil, err
	}
	var scaler preprocess.StandardScaler
	trainZ, err := scaler.FitTransform(trainT.Flatten())
	if err != nil {
		return nil, err
	}
	testZ, err := scaler.Transform(testT.Flatten())
	if err != nil {
		return nil, err
	}
	trainF, err := preprocess.CovarianceEmbed(trainZ, trainT.T, trainT.C)
	if err != nil {
		return nil, err
	}
	testF, err := preprocess.CovarianceEmbed(testZ, testT.T, testT.C)
	if err != nil {
		return nil, err
	}
	return &FeaturePair{TrainX: trainF, TrainY: ch.Train.Y, TestX: testF, TestY: ch.Test.Y}, nil
}

// FusedResult is the outcome of the fused-features experiment.
type FusedResult struct {
	GPUOnlyAccuracy float64
	FusedAccuracy   float64
	TopFeatures     []string
	TopShares       []float64
	// CrossRank is the best importance rank (1-based) of any GPU×CPU
	// cross-device covariance — the paper's headline feature.
	CrossRank int
}

// RunFusedImportance trains XGBoost on GPU-only vs fused covariance
// features of 60-random-1 and ranks the fused features by gain importance,
// reproducing the §IV-B analysis in its original (CPU+GPU) feature space.
func RunFusedImportance(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (*FusedResult, error) {
	spec, _ := dataset.SpecByName("60-random-1")
	ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		return nil, err
	}
	numClasses := int(telemetry.NumClasses)
	cfg := xgb.Config{
		NumRounds: p.XGBRounds, LearningRate: 0.3, MaxDepth: 6,
		Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: p.Seed,
	}

	gpuFP, err := CovFeatures(ch)
	if err != nil {
		return nil, err
	}
	gpuModel := xgb.New(cfg)
	if err := gpuModel.Fit(gpuFP.TrainX, gpuFP.TrainY, numClasses, nil, nil); err != nil {
		return nil, err
	}
	gpuPred, err := gpuModel.Predict(gpuFP.TestX)
	if err != nil {
		return nil, err
	}
	gpuAcc, err := metrics.Accuracy(gpuFP.TestY, gpuPred)
	if err != nil {
		return nil, err
	}
	if logf != nil {
		logf("fused: GPU-only accuracy %.4f", gpuAcc)
	}

	fusedFP, err := FusedCovFeatures(sim, ch)
	if err != nil {
		return nil, err
	}
	fusedModel := xgb.New(cfg)
	if err := fusedModel.Fit(fusedFP.TrainX, fusedFP.TrainY, numClasses, nil, nil); err != nil {
		return nil, err
	}
	fusedPred, err := fusedModel.Predict(fusedFP.TestX)
	if err != nil {
		return nil, err
	}
	fusedAcc, err := metrics.Accuracy(fusedFP.TestY, fusedPred)
	if err != nil {
		return nil, err
	}
	if logf != nil {
		logf("fused: CPU+GPU accuracy %.4f", fusedAcc)
	}

	names := preprocess.CovariancePairNames(FusedSensorNames())
	top := fusedModel.TopFeatures(xgb.ImportanceGain, 10)
	imp := fusedModel.FeatureImportances(xgb.ImportanceGain)
	res := &FusedResult{GPUOnlyAccuracy: gpuAcc, FusedAccuracy: fusedAcc}
	for rank, f := range top {
		res.TopFeatures = append(res.TopFeatures, names[f])
		res.TopShares = append(res.TopShares, imp[f])
		if res.CrossRank == 0 && isCrossDevice(names[f]) {
			res.CrossRank = rank + 1
		}
	}
	return res, nil
}

// isCrossDevice reports whether a covariance name pairs a GPU sensor with a
// CPU sensor.
func isCrossDevice(name string) bool {
	if !strings.HasPrefix(name, "cov(") {
		return false
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(name, "cov("), ")")
	parts := strings.SplitN(inner, ",", 2)
	if len(parts) != 2 {
		return false
	}
	gpu := func(s string) bool {
		return strings.Contains(s, "_pct") || strings.Contains(s, "MiB") ||
			strings.Contains(s, "temperature") || strings.Contains(s, "power")
	}
	return gpu(parts[0]) != gpu(parts[1])
}

// FormatFused renders the fused-features experiment.
func FormatFused(res *FusedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fused CPU+GPU covariance features (60-random-1, XGBoost)\n")
	fmt.Fprintf(&b, "  GPU-only (28 features):  %s%%\n", pct(res.GPUOnlyAccuracy))
	fmt.Fprintf(&b, "  CPU+GPU (120 features):  %s%%\n", pct(res.FusedAccuracy))
	fmt.Fprintf(&b, "  top-10 by gain importance:\n")
	for i, name := range res.TopFeatures {
		marker := ""
		if isCrossDevice(name) {
			marker = "  << cross-device"
		}
		fmt.Fprintf(&b, "    %2d. %-62s %.3f%s\n", i+1, name, res.TopShares[i], marker)
	}
	if res.CrossRank > 0 {
		fmt.Fprintf(&b, "  first GPU x CPU covariance at rank %d (paper: rank 1, cov(gpu util, cpu util))\n", res.CrossRank)
	} else {
		fmt.Fprintf(&b, "  no cross-device covariance in the top 10 (paper: rank 1)\n")
	}
	return b.String()
}
