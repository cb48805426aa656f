package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

func smokeSim(t testing.TB) *telemetry.Simulator {
	t.Helper()
	sim, err := NewSimulator(PresetSmoke())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"smoke", "scaled", "full"} {
		p, err := PresetByName(name)
		if err != nil || p.Name != name {
			t.Errorf("PresetByName(%q) = %+v, %v", name, p.Name, err)
		}
	}
	if _, err := PresetByName("turbo"); err == nil {
		t.Error("unknown preset should fail")
	}
}

func TestPresetGridsMatchPaper(t *testing.T) {
	full := PresetFull()
	if full.Folds != 10 || full.XGBFolds != 5 {
		t.Errorf("full preset folds %d/%d, want 10/5", full.Folds, full.XGBFolds)
	}
	wantDims := []int{28, 64, 256, 512}
	for i, d := range wantDims {
		if full.PCADims[i] != d {
			t.Errorf("full PCA dims %v, want %v", full.PCADims, wantDims)
		}
	}
	wantCs := []float64{0.1, 1, 10}
	for i, c := range wantCs {
		if full.SVMCs[i] != c {
			t.Errorf("full SVM grid %v, want %v", full.SVMCs, wantCs)
		}
	}
	wantTrees := []int{50, 100, 250}
	for i, n := range wantTrees {
		if full.RFTrees[i] != n {
			t.Errorf("full RF grid %v, want %v", full.RFTrees, wantTrees)
		}
	}
	if full.XGBRounds != 40 {
		t.Errorf("full XGB rounds %d, want 40", full.XGBRounds)
	}
	if full.RNN.Epochs != 1000 || full.RNN.Patience != 100 {
		t.Errorf("full RNN protocol %d/%d, want 1000/100", full.RNN.Epochs, full.RNN.Patience)
	}
}

func TestCovFeatureShapes(t *testing.T) {
	sim := smokeSim(t)
	p := PresetSmoke()
	ch, err := BuildDataset(sim, dataset.ChallengeSpecs[1], p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := CovFeatures(ch)
	if err != nil {
		t.Fatal(err)
	}
	if fp.TrainX.Cols != 28 {
		t.Errorf("covariance features have %d dims, want 28", fp.TrainX.Cols)
	}
	if fp.TrainX.Rows != len(fp.TrainY) || fp.TestX.Rows != len(fp.TestY) {
		t.Error("feature/label size mismatch")
	}
}

func TestPCAFeatureShapes(t *testing.T) {
	sim := smokeSim(t)
	p := PresetSmoke()
	ch, err := BuildDataset(sim, dataset.ChallengeSpecs[1], p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := PCAFeatures(ch, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.TrainX.Cols != 16 || fp.TestX.Cols != 16 {
		t.Errorf("PCA features %d/%d dims, want 16", fp.TrainX.Cols, fp.TestX.Cols)
	}
	if _, err := PCAFeatures(ch, 100000, 1); err == nil {
		t.Error("absurd PCA dim should fail")
	}
}

func TestCovFeatureNames(t *testing.T) {
	names := CovFeatureNames()
	if len(names) != 28 {
		t.Fatalf("got %d names", len(names))
	}
	if names[0] != "var(utilization_gpu_pct)" {
		t.Errorf("names[0] = %q", names[0])
	}
	if names[1] != "cov(utilization_gpu_pct,utilization_memory_pct)" {
		t.Errorf("names[1] = %q", names[1])
	}
}

func TestBuildDatasetCaps(t *testing.T) {
	sim := smokeSim(t)
	p := PresetSmoke()
	ch, err := BuildDataset(sim, dataset.ChallengeSpecs[0], p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Train.Len() > p.MaxTrain || ch.Test.Len() > p.MaxTest {
		t.Errorf("caps not applied: %d/%d", ch.Train.Len(), ch.Test.Len())
	}
}

func TestRunTable1(t *testing.T) {
	sim := smokeSim(t)
	rows := RunTable1(sim)
	if len(rows) != int(telemetry.NumFamilies) {
		t.Fatalf("got %d family rows", len(rows))
	}
	totalPaper := 0
	for _, r := range rows {
		totalPaper += r.PaperJobs
		if r.GeneratedJobs <= 0 {
			t.Errorf("family %s has no generated jobs", r.Family)
		}
	}
	if totalPaper != telemetry.TotalJobs {
		t.Errorf("paper totals sum to %d, want %d", totalPaper, telemetry.TotalJobs)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "U-Net") || !strings.Contains(out, "1431") {
		t.Errorf("Table I render missing content:\n%s", out)
	}
}

func TestFormatTables2And3(t *testing.T) {
	out := FormatTables2And3()
	for _, want := range []string{"CPUFrequency", "utilization_gpu_pct", "power_draw_W", "RSS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Tables II/III render missing %q", want)
		}
	}
}

func TestRunTable4(t *testing.T) {
	sim := smokeSim(t)
	rows, err := RunTable4(sim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d dataset rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Samples != 540 || r.Sensors != 7 {
			t.Errorf("%s shape %dx%d, want 540x7", r.Name, r.Samples, r.Sensors)
		}
		if r.TrainTrials == 0 || r.TestTrials == 0 {
			t.Errorf("%s is empty", r.Name)
		}
	}
	if rows[0].TrainTrials+rows[0].TestTrials <= rows[1].TrainTrials+rows[1].TestTrials {
		t.Error("start dataset should have the most trials")
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "60-random-5") || !strings.Contains(out, "14590") {
		t.Errorf("Table IV render missing content:\n%s", out)
	}
}

func TestRunTables789(t *testing.T) {
	sim := smokeSim(t)
	rows := RunTables789(sim)
	if len(rows) != int(telemetry.NumClasses) {
		t.Fatalf("got %d class rows", len(rows))
	}
	out := FormatTables789(rows)
	for _, want := range []string{"VGG11", "U3-128", "DimeNet", "ResNet50_v1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("class inventory missing %q", want)
		}
	}
}

func TestRunTable5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 smoke run takes ~a minute")
	}
	sim := smokeSim(t)
	res, err := RunTable5(sim, PresetSmoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 7 {
		t.Fatalf("got %d datasets", len(res.Datasets))
	}
	for _, m := range Table5Models {
		for _, d := range res.Datasets {
			cell, ok := res.Cells[m][d]
			if !ok {
				t.Fatalf("missing cell %s/%s", m, d)
			}
			if cell.Accuracy < 0.10 {
				t.Errorf("%s on %s: accuracy %.3f is at chance level", m, d, cell.Accuracy)
			}
			if cell.BestParams == "" {
				t.Errorf("%s on %s: no best params recorded", m, d)
			}
		}
	}
	// The covariance embedding must carry real signal for RF even at smoke
	// scale (~6 train trials per class; chance is 1/26 ≈ 0.04).
	if res.Cells[RFCov]["60-middle-1"].Accuracy < 0.4 {
		t.Errorf("RF-Cov middle accuracy %.3f, want > 0.4", res.Cells[RFCov]["60-middle-1"].Accuracy)
	}
	// The pipeline is seeded, so the smoke preset's number is a fixed point:
	// 0.4875 (39 of 80 test trials) when this pin was taken. A refactor of
	// tree, forest or preprocess that moves it moves every artifact the
	// serving plane loads.
	if got := res.Cells[RFCov]["60-middle-1"].Accuracy; math.Abs(got-0.4875) > 0.02 {
		t.Errorf("RF-Cov middle accuracy %.4f, pinned at 0.4875 ± 0.02", got)
	}
	// The SVM row is held to a number the same way, so internal/svm is pinned
	// as the table's ground truth too: 0.15 (12 of 80) when this pin was taken.
	if got := res.Cells[SVMCov]["60-middle-1"].Accuracy; math.Abs(got-0.15) > 0.02 {
		t.Errorf("SVM-Cov middle accuracy %.4f, pinned at 0.15 ± 0.02", got)
	}
	out := FormatTable5(res)
	if !strings.Contains(out, "93.02") {
		t.Errorf("Table V render missing paper reference values:\n%s", out)
	}
}

func TestRunXGBoostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("xgboost smoke run takes tens of seconds")
	}
	sim := smokeSim(t)
	res, err := RunXGBoost(sim, PresetSmoke())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.3 {
		t.Errorf("XGB accuracy %.3f at smoke scale", res.Accuracy)
	}
	// Seeded like Table V: 0.45 (36 of 80 test trials) when this pin was taken.
	if math.Abs(res.Accuracy-0.45) > 0.02 {
		t.Errorf("XGB accuracy %.4f, pinned at 0.45 ± 0.02", res.Accuracy)
	}
	if len(res.TopFeatures) != 3 {
		t.Fatalf("want top-3 features, got %v", res.TopFeatures)
	}
	out := FormatXGB(res)
	if !strings.Contains(out, "88.47") || !strings.Contains(out, "top-3") {
		t.Errorf("XGB render missing content:\n%s", out)
	}
}

func TestRunTable6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table 6 smoke run takes ~a minute")
	}
	sim := smokeSim(t)
	res, err := RunTable6(sim, PresetSmoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 6 {
		t.Fatalf("got %d models, want 6", len(res.Models))
	}
	if len(res.Datasets) != 3 {
		t.Fatalf("got %d datasets, want 3", len(res.Datasets))
	}
	for _, m := range res.Models {
		for _, d := range res.Datasets {
			if _, ok := res.Cells[m][d]; !ok {
				t.Fatalf("missing cell %s/%s", m, d)
			}
		}
	}
	// Seeded like Table V, and the same at any GOMAXPROCS: one LSTM and one
	// CNN-LSTM cell are fixed points of internal/nn. Three epochs on ~6 trials
	// a class leave both barely above chance (1/26) — 0.1 is 6 of 60 test
	// trials, 0.0833 is 5 — so ± 0.02 is one trial either way: the pin says
	// the networks train the same, not that they train well at this preset.
	for model, want := range map[string]float64{"LSTM (h=128)": 0.1, "CNN-LSTM (h=128)": 0.0833} {
		if got := res.Cells[model]["60-middle-1"].TestAccuracy; math.Abs(got-want) > 0.02 {
			t.Errorf("%s middle accuracy %.4f, pinned at %.4f ± 0.02", model, got, want)
		}
	}
	out := FormatTable6(res)
	if !strings.Contains(out, "CNN-LSTM (h=512, small kernel)") {
		t.Errorf("Table VI render missing models:\n%s", out)
	}
}

func TestTable6SpecNames(t *testing.T) {
	want := []string{
		"LSTM (h=128)",
		"LSTM (h=128, 2-layer)",
		"CNN-LSTM (h=128)",
		"CNN-LSTM (h=256)",
		"CNN-LSTM (h=512)",
		"CNN-LSTM (h=512, small kernel)",
	}
	for i, spec := range Table6Specs {
		if spec.PaperName() != want[i] {
			t.Errorf("spec %d name %q, want %q", i, spec.PaperName(), want[i])
		}
		if _, ok := paperTable6[spec.PaperName()]; !ok {
			t.Errorf("no paper reference for %q", spec.PaperName())
		}
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable("Title", []string{"A", "Long header"},
		[][]string{{"x", "1"}, {"longer cell", "2"}})
	want := "### Title\n\n| A | Long header |\n|---|---|\n| x | 1 |\n| longer cell | 2 |\n"
	if out != want {
		t.Errorf("render:\n%s\nwant:\n%s", out, want)
	}
}

// TestRenderAgainstPaper: Δ is the difference of the two printed values, so
// it never disagrees with them in the last digit.
func TestRenderAgainstPaper(t *testing.T) {
	out := renderAgainstPaper("T", []againstPaper{{"d", "m", 93.02, 0.715}, {"d", "n", 50, 0.5}})
	for _, want := range []string{"| d | m | 93.02 | 71.50 | -21.52 |", "| d | n | 50.00 | 50.00 | +0.00 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestPaperReferenceTables(t *testing.T) {
	// Published values must be present for every cell we report.
	for _, m := range Table5Models {
		row := PaperTable5()[m]
		if len(row) != 7 {
			t.Errorf("paper Table V row %s has %d cells", m, len(row))
		}
	}
	if PaperXGBAccuracy != 88.47 {
		t.Errorf("paper XGB accuracy constant = %v", PaperXGBAccuracy)
	}
	for name, row := range PaperTable6() {
		if len(row) != 3 {
			t.Errorf("paper Table VI row %s has %d cells", name, len(row))
		}
	}
}
