package adapt_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/preprocess"
)

// TestProvenanceTrainerRegeneratesTheFittedRows pins the property the
// flywheel depends on: from nothing but an artifact's recorded provenance
// and its scaler, the trainer regenerates, bit for bit, the feature rows the
// artifact's model was fitted on — for an artifact the facade produced
// (uncapped) and for one carrying trial caps the way wcctrain -o records
// them. It holds because every producer and the trainer build their dataset
// through the one core.BuildDataset.
func TestProvenanceTrainerRegeneratesTheFittedRows(t *testing.T) {
	ds, err := repro.GenerateDataset("60-middle-1", 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.TrainRFCov(ds, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	facade := res.Artifact(ds)
	// TrainRFCov fits on exactly this embedding of the dataset.
	fitted, err := core.CovFeatures(ds.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Scaler.Equal(fitted.Scaler) {
		t.Fatal("fixture broke its premise: the facade's scaler is not the embedding's")
	}

	// wcctrain: same simulator, capped build, caps recorded in the metadata.
	capped := facade.Meta
	capped.MaxTrain, capped.MaxTest, capped.Tool = 40, 20, "wcctrain"
	spec, _ := dataset.SpecByName(capped.Dataset)
	ch, err := core.BuildDataset(ds.Sim, spec, capped.Seed, capped.MaxTrain, capped.MaxTest)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Train.Len() != capped.MaxTrain {
		t.Fatalf("fixture has %d training trials; the %d cap must bind", ch.Train.Len(), capped.MaxTrain)
	}
	fittedCapped, err := core.CovFeatures(ch)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		meta   artifact.Metadata
		scaler *preprocess.StandardScaler
		want   *core.FeaturePair
	}{
		{"facade artifact", facade.Meta, facade.Scaler, fitted},
		{"artifact with recorded caps", capped, fittedCapped.Scaler, fittedCapped},
	} {
		got, _, err := (&adapt.ProvenanceTrainer{Meta: tc.meta, Scaler: tc.scaler}).BaseFeatures()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.TrainX.Rows != tc.want.TrainX.Rows || got.TrainX.Cols != tc.want.TrainX.Cols {
			t.Fatalf("%s: regenerated %dx%d training rows, model was fitted on %dx%d",
				tc.name, got.TrainX.Rows, got.TrainX.Cols, tc.want.TrainX.Rows, tc.want.TrainX.Cols)
		}
		for i, v := range tc.want.TrainX.Data {
			if math.Float64bits(got.TrainX.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: training feature %d regenerated as %v, fitted on %v", tc.name, i, got.TrainX.Data[i], v)
			}
		}
		for i, y := range tc.want.TrainY {
			if got.TrainY[i] != y {
				t.Fatalf("%s: training label %d regenerated as %d, fitted on %d", tc.name, i, got.TrainY[i], y)
			}
		}
	}
}
