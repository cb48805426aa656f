package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/preprocess"
)

func TestFusedSensorNames(t *testing.T) {
	names := FusedSensorNames()
	if len(names) != FusedSensors || FusedSensors != 15 {
		t.Fatalf("fused sensors = %d names (const %d), want 15", len(names), FusedSensors)
	}
	if names[0] != "utilization_gpu_pct" || names[7] != "CPUFrequency" {
		t.Errorf("fused order wrong: %v", names[:9])
	}
	pairs := preprocess.CovariancePairNames(names)
	if len(pairs) != 120 {
		t.Errorf("fused embedding has %d entries, want 120", len(pairs))
	}
}

func TestIsCrossDevice(t *testing.T) {
	if !isCrossDevice("cov(utilization_gpu_pct,CPUUtilization)") {
		t.Error("gpu×cpu pair not detected")
	}
	if isCrossDevice("cov(utilization_gpu_pct,power_draw_W)") {
		t.Error("gpu×gpu pair misdetected")
	}
	if isCrossDevice("cov(CPUTime,CPUUtilization)") {
		t.Error("cpu×cpu pair misdetected")
	}
	if isCrossDevice("var(utilization_gpu_pct)") {
		t.Error("variance misdetected")
	}
}

func TestFusedCovFeatureShapes(t *testing.T) {
	sim := smokeSim(t)
	p := PresetSmoke()
	p.MaxTrain = 60
	p.MaxTest = 30
	spec, _ := dataset.SpecByName("60-middle-1")
	ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := FusedCovFeatures(sim, ch)
	if err != nil {
		t.Fatal(err)
	}
	if fp.TrainX.Cols != 120 {
		t.Errorf("fused features have %d dims, want 120", fp.TrainX.Cols)
	}
	if fp.TrainX.Rows != ch.Train.Len() || fp.TestX.Rows != ch.Test.Len() {
		t.Error("fused feature row counts wrong")
	}
}

func TestRunFusedImportanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fused importance run takes ~a minute")
	}
	sim := smokeSim(t)
	p := PresetSmoke()
	p.MaxTrain = 120
	p.MaxTest = 60
	p.XGBRounds = 8
	res, err := RunFusedImportance(sim, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FusedAccuracy <= 0 || res.GPUOnlyAccuracy <= 0 {
		t.Errorf("degenerate accuracies: %+v", res)
	}
	if len(res.TopFeatures) == 0 {
		t.Fatal("no top features")
	}
	out := FormatFused(res)
	if !strings.Contains(out, "CPU+GPU") || !strings.Contains(out, "gain importance") {
		t.Errorf("render missing content:\n%s", out)
	}
}
