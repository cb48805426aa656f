package shard

import (
	"math/rand"
	"testing"

	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/mat"
)

// shardTestCalibration fits a calibration matched to the shard fixture:
// threshold from the fixture model's held-out probabilities, reference
// from the jobSamples distribution.
func shardTestCalibration(t *testing.T, model interface {
	PredictProba(x *mat.Matrix) (*mat.Matrix, error)
}) *drift.Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	trainFeats := mat.New(400, 6)
	for i := range trainFeats.Data {
		trainFeats.Data[i] = rng.NormFloat64()
	}
	heldOut := mat.New(200, 6)
	for i := range heldOut.Data {
		heldOut.Data[i] = rng.NormFloat64()
	}
	probs, err := model.PredictProba(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	ref := mat.New(4000, testSensors)
	for i := range ref.Data {
		ref.Data[i] = rng.NormFloat64()*2 + 4
	}
	cal, err := drift.Fit(drift.FitInput{
		Probs: probs, TrainFeatures: trainFeats, HeldOutFeatures: heldOut, RawSamples: ref,
	}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestShardedDriftStatsMatchSingleMonitor pins the merge contract: a
// 4-shard core and one fleet.Monitor fed identical streams must report
// bit-identical drift stats — counts are summed before the PSI is
// computed, exactly as TickStats are merged.
func TestShardedDriftStatsMatchSingleMonitor(t *testing.T) {
	scaler, model := fixture(t)
	cal := shardTestCalibration(t, model)

	core, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler,
		Model: model, Shards: 4, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	single, err := fleet.New(fleet.Config{Window: testWindow, Sensors: testSensors,
		Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 60
	for k := 0; k < jobs; k++ {
		for _, s := range jobSamples(k, testWindow+2) {
			if err := core.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
			if err := single.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := core.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Tick(); err != nil {
		t.Fatal(err)
	}

	got, want := core.DriftStats(), single.DriftStats()
	if !got.Enabled || !want.Enabled {
		t.Fatal("drift stats disabled")
	}
	if got.Samples != want.Samples {
		t.Fatalf("sharded binned %d samples, single %d", got.Samples, want.Samples)
	}
	if got.Unknowns != want.Unknowns {
		t.Fatalf("sharded counted %d unknowns, single %d", got.Unknowns, want.Unknowns)
	}
	if len(got.SensorPSI) != len(want.SensorPSI) {
		t.Fatalf("PSI widths differ: %d vs %d", len(got.SensorPSI), len(want.SensorPSI))
	}
	for c := range want.SensorPSI {
		if got.SensorPSI[c] != want.SensorPSI[c] {
			t.Fatalf("sensor %d PSI: sharded %v vs single %v (not bit-identical)",
				c, got.SensorPSI[c], want.SensorPSI[c])
		}
	}
	if got.Score != want.Score {
		t.Fatalf("fleet score: sharded %v vs single %v", got.Score, want.Score)
	}

	// Per-job predictions carry the same annotations on both paths.
	for k := 0; k < jobs; k++ {
		cp, ok1 := core.Prediction(k)
		sp, ok2 := single.Prediction(k)
		if !ok1 || !ok2 {
			t.Fatalf("job %d missing a prediction (sharded %v, single %v)", k, ok1, ok2)
		}
		if (cp.Open == nil) != (sp.Open == nil) {
			t.Fatalf("job %d: annotation presence differs", k)
		}
		if cp.Open != nil && *cp.Open != *sp.Open {
			t.Fatalf("job %d: annotations differ: %+v vs %+v", k, cp.Open, sp.Open)
		}
	}
}

// TestShardedDriftDisabled pins the zero value on a core built without a
// calibration.
func TestShardedDriftDisabled(t *testing.T) {
	scaler, model := fixture(t)
	core := newCore(t, scaler, model, 3)
	if st := core.DriftStats(); st.Enabled || st.Samples != 0 || st.SensorPSI != nil {
		t.Fatalf("drift stats on a plain core: %+v", st)
	}
	if core.Unknowns() != 0 {
		t.Fatal("unknowns nonzero on a plain core")
	}
}
