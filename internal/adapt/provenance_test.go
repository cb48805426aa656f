package adapt_test

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro"
	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/xgb"
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

// TestCandidateFromNonForestBase: wcctrain -model xgb -o writes a servable
// artifact, so the flywheel can be pointed at one. The candidate grown from
// it is a 50-tree forest and says so — it used to inherit the base's "xgb",
// which artifact.Encode refuses, so no promotion could ever be saved. The
// same base, calibrated off the default quantile, also pins what
// NewProvenanceTrainer inherits: the candidate's feature gate is calibrated
// where the base's was, not back at the default — and at the default when
// the base's section predates the gate-only rule and recorded no quantile.
func TestCandidateFromNonForestBase(t *testing.T) {
	p := core.Provenance{Dataset: "60-middle-1", Scale: 0.03, Seed: 1, MaxTrain: 40, MaxTest: 20}
	_, ch, err := p.Regenerate()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := core.CovFeatures(ch)
	if err != nil {
		t.Fatal(err)
	}
	boost := xgb.New(xgb.Config{NumRounds: 3, Lambda: 1})
	fit := func() error { return boost.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses), nil, nil) }
	const baseQuantile = 0.9
	base, _, err := core.TrainArtifact(p.Metadata(ch.Train.X, "cov", "wcctrain"), fp, boost, fit,
		core.RawSensorSamples(ch.Train.X), drift.Options{Quantile: baseQuantile})
	if err != nil {
		t.Fatal(err)
	}
	if base.Meta.Kind != artifact.KindXGB {
		t.Fatalf("fixture base is %q, want an xgb artifact", base.Meta.Kind)
	}
	fam := adapt.Family{Count: 8, Rows: mat.New(8, fp.TrainX.Cols)}
	for i := range fam.Rows.Data {
		fam.Rows.Data[i] = 50 + float64(i%5)
	}

	// A base whose drift section was written when the verdict still ORed
	// probability cut points into the gate records no gate quantile.
	legacy := *base
	raw, err := os.ReadFile("../drift/testdata/legacy_v1.drift")
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Drift, err = drift.Decode(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name         string
		trainer      *adapt.ProvenanceTrainer
		wantQuantile float64
	}{
		{"literal trainer, no quantile", &adapt.ProvenanceTrainer{Meta: base.Meta, Scaler: base.Scaler, Base: base.Model}, drift.DefaultQuantile},
		{"trainer for the base artifact", adapt.NewProvenanceTrainer(base), baseQuantile},
		{"trainer for a base with a legacy drift section", adapt.NewProvenanceTrainer(&legacy), drift.DefaultQuantile},
	} {
		cand, err := tc.trainer.Train([]adapt.Family{fam})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := artifact.Encode(&buf, cand); err != nil {
			t.Fatalf("%s: candidate does not save: %v", tc.name, err)
		}
		loaded, err := artifact.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := server.Servable(loaded); err != nil {
			t.Fatalf("%s: saved candidate is not servable: %v", tc.name, err)
		}
		if loaded.Meta.Kind != artifact.KindForest {
			t.Errorf("%s: candidate kind %q, want %q", tc.name, loaded.Meta.Kind, artifact.KindForest)
		}
		if got := loaded.Model.(*forest.Classifier).NumTrees(); got != 50 {
			t.Errorf("%s: candidate forest has %d trees, want the default 50", tc.name, got)
		}
		if got := loaded.Drift.Threshold.Quantile; got != tc.wantQuantile {
			t.Errorf("%s: candidate calibrated at quantile %v, want %v", tc.name, got, tc.wantQuantile)
		}
	}
}
