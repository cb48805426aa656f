package core

import (
	"math"
	"testing"

	"repro/internal/artifact"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/xgb"
)

// TestTrainArtifact pins what every producer relies on: the held-out split
// is scored once and everything reported comes from that pass, the kind is
// the model's own, and the provenance in the metadata regenerates the very
// rows the model was fitted on.
func TestTrainArtifact(t *testing.T) {
	p := Provenance{Dataset: "60-middle-1", Scale: 0.03, Seed: 1, MaxTrain: 60, MaxTest: 30}
	_, ch, err := p.Regenerate()
	if err != nil {
		t.Fatal(err)
	}
	if ch.Train.Len() != p.MaxTrain {
		t.Fatalf("fixture has %d training trials; the %d cap must bind", ch.Train.Len(), p.MaxTrain)
	}
	fp, err := CovFeatures(ch)
	if err != nil {
		t.Fatal(err)
	}
	numClasses := int(telemetry.NumClasses)
	rf := forest.New(forest.Config{NumTrees: 5, Bootstrap: true, Seed: 1})
	boost := xgb.New(xgb.Config{NumRounds: 3, LearningRate: 0.3, MaxDepth: 3, Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: 1})

	for _, tc := range []struct {
		name  string
		model artifact.Model
		fit   func() error
	}{
		{"forest", rf, func() error { return rf.Fit(fp.TrainX, fp.TrainY, numClasses) }},
		{"xgb", boost, func() error { return boost.Fit(fp.TrainX, fp.TrainY, numClasses, nil, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A stale kind in the template must not survive.
			meta := p.Metadata(ch.Train.X, "cov", "test")
			meta.Kind = "stale"
			a, held, err := TrainArtifact(meta, fp, tc.model, tc.fit, RawSensorSamples(ch.Train.X), drift.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.model.Predict(fp.TestX)
			if err != nil {
				t.Fatal(err)
			}
			if held.Probs.Rows != len(want) || len(held.Pred) != len(want) {
				t.Fatalf("held-out pass covers %d/%d rows, test split has %d", held.Probs.Rows, len(held.Pred), len(want))
			}
			for i, y := range want {
				if got := mat.ArgMax(held.Probs.Row(i)); got != y || held.Pred[i] != y {
					t.Fatalf("row %d: arg-max %d, Pred %d, Predict %d", i, got, held.Pred[i], y)
				}
			}
			acc, err := metrics.Accuracy(fp.TestY, want)
			if err != nil {
				t.Fatal(err)
			}
			if a.Meta.Accuracy != acc {
				t.Errorf("Meta.Accuracy %v, the held-out rows score %v", a.Meta.Accuracy, acc)
			}
			if kind, _ := artifact.ModelKind(tc.model); a.Meta.Kind != kind {
				t.Errorf("Meta.Kind %q, model is %q", a.Meta.Kind, kind)
			}
			if a.Scaler != fp.Scaler || a.Drift == nil || a.Drift.Feat == nil || a.Drift.Ref == nil {
				t.Errorf("artifact lacks the pair's scaler or a full calibration: %+v", a)
			}
			if got := ProvenanceOf(a.Meta); got != p {
				t.Fatalf("metadata records provenance %+v, trained from %+v", got, p)
			}

			_, again, err := ProvenanceOf(a.Meta).Regenerate()
			if err != nil {
				t.Fatal(err)
			}
			refp, err := CovFeatures(again)
			if err != nil {
				t.Fatal(err)
			}
			if len(refp.TrainX.Data) != len(fp.TrainX.Data) {
				t.Fatalf("regenerated %d training values, fitted on %d", len(refp.TrainX.Data), len(fp.TrainX.Data))
			}
			for i, v := range fp.TrainX.Data {
				if math.Float64bits(refp.TrainX.Data[i]) != math.Float64bits(v) {
					t.Fatalf("training feature %d regenerated as %v, fitted on %v", i, refp.TrainX.Data[i], v)
				}
			}
		})
	}
}
