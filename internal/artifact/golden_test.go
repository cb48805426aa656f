package artifact

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
)

// Regenerate the golden fixture ONLY for a deliberate, versioned format
// change (bump FormatVersion or a package codecVersion alongside it):
//
//	go test ./internal/artifact -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden artifact fixture")

const (
	goldenArtifact = "testdata/golden_v1.wcc"
	goldenProbs    = "testdata/golden_v1_probs.json"
)

// goldenModel deterministically trains the tiny forest the fixture holds.
// Training only runs at -update time; the committed test path exercises pure
// decoding, so a future encoder change that breaks v1 compatibility fails CI
// even if training behaviour drifts.
func goldenModel(t *testing.T) (*Artifact, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(424242))
	flat := mat.New(20, 12)
	for i := range flat.Data {
		flat.Data[i] = rng.NormFloat64()*2 + 1
	}
	scaler := &preprocess.StandardScaler{}
	if err := scaler.Fit(flat); err != nil {
		t.Fatal(err)
	}

	x := mat.New(60, 6)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(3)
	}
	f := forest.New(forest.Config{NumTrees: 5, MaxDepth: 4, Bootstrap: true, Seed: 424242})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	a := &Artifact{
		Meta: Metadata{
			ClassNames:  []string{"vgg", "resnet", "bert"},
			Features:    "cov",
			Window:      4,
			Sensors:     3,
			Dataset:     "golden-fixture",
			Scale:       0.01,
			Seed:        424242,
			Accuracy:    0.5,
			CreatedUnix: 1753574400, // fixed so the fixture is byte-stable
			Tool:        "golden_test",
		},
		Scaler: scaler,
		Model:  f,
	}
	return a, goldenEval()
}

// goldenEval is the fixed input batch whose predictions the fixture pins.
func goldenEval() *mat.Matrix {
	rng := rand.New(rand.NewSource(515151))
	eval := mat.New(16, 6)
	for i := range eval.Data {
		eval.Data[i] = rng.NormFloat64()
	}
	return eval
}

// TestGoldenArtifactCompatibility loads the checked-in v1 fixture and
// asserts bit-exact predictions after decode. Any encoder/decoder change
// that silently breaks compatibility with already-shipped artifacts fails
// here; a deliberate break must bump the format version and regenerate the
// fixture with -update.
func TestGoldenArtifactCompatibility(t *testing.T) {
	if *update {
		a, eval := goldenModel(t)
		probs, err := a.Model.(*forest.Classifier).PredictProba(eval)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenArtifact), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Save(goldenArtifact, a); err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, probs.Rows)
		for i := range rows {
			rows[i] = probs.Row(i)
		}
		js, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenProbs, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden fixture rewritten")
	}

	a, err := Load(goldenArtifact)
	if err != nil {
		t.Fatalf("golden artifact failed to load: %v", err)
	}
	if a.Meta.Kind != KindForest || a.Meta.Dataset != "golden-fixture" {
		t.Fatalf("golden metadata drifted: %+v", a.Meta)
	}
	if a.Scaler == nil || len(a.Scaler.Means) != 12 {
		t.Fatal("golden scaler missing or reshaped")
	}
	// The fixture predates the drift section: it must keep loading with
	// open-set detection simply disabled, never an error.
	if a.Drift != nil {
		t.Fatal("golden v1 artifact (written before drift calibration existed) decoded a drift section")
	}

	raw, err := os.ReadFile(goldenProbs)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	probs, err := a.Model.(*forest.Classifier).PredictProba(goldenEval())
	if err != nil {
		t.Fatal(err)
	}
	if probs.Rows != len(want) {
		t.Fatalf("%d prediction rows, fixture has %d", probs.Rows, len(want))
	}
	for i, wrow := range want {
		grow := probs.Row(i)
		if len(grow) != len(wrow) {
			t.Fatalf("row %d: %d classes, fixture has %d", i, len(grow), len(wrow))
		}
		for c := range wrow {
			if grow[c] != wrow[c] {
				t.Fatalf("row %d class %d: %v vs fixture %v (v1 compatibility broken — "+
					"bump the format version and regenerate with -update)", i, c, grow[c], wrow[c])
			}
		}
	}
}

// TestGoldenArtifactServesWithoutDrift pins that a pre-drift artifact still
// serves: a fleet monitor built from its scaler and model, with no drift
// calibration, classifies a live stream and reports drift disabled.
func TestGoldenArtifactServesWithoutDrift(t *testing.T) {
	a, err := Load(goldenArtifact)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fleet.New(fleet.Config{
		Window:  a.Meta.Window,
		Sensors: a.Meta.Sensors,
		Scaler:  a.Scaler,
		Model:   a.Model.(*forest.Classifier),
		Drift:   a.Drift, // nil: drift disabled, never an error
	})
	if err != nil {
		t.Fatalf("pre-drift artifact no longer builds a serving fleet: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < a.Meta.Window+2; i++ {
		sample := make([]float64, a.Meta.Sensors)
		for c := range sample {
			sample[c] = rng.NormFloat64()
		}
		if err := m.Ingest(1, sample); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	pred, ok := m.Prediction(1)
	if !ok {
		t.Fatal("no prediction from the pre-drift artifact")
	}
	if pred.Open != nil {
		t.Fatal("open-set annotation present with drift disabled")
	}
	if st := m.DriftStats(); st.Enabled {
		t.Fatal("drift stats enabled without a calibration")
	}
}
