package adapt

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
)

const testDim = 6

// featureFixture builds a synthetic base feature pair: four well-separated
// class blobs in a testDim-wide feature space, split into train and test,
// with a fitted scaler attached (the candidate path requires one to reuse).
func featureFixture(t *testing.T, seed int64) *core.FeaturePair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{
		{0, 0, 0, 0, 0, 0},
		{6, 0, 0, 6, 0, 0},
		{0, 6, 0, 0, 6, 0},
		{0, 0, 6, 0, 0, 6},
	}
	const perClassTrain, perClassTest = 40, 10
	train := mat.New(len(centers)*perClassTrain, testDim)
	trainY := make([]int, 0, train.Rows)
	test := mat.New(len(centers)*perClassTest, testDim)
	testY := make([]int, 0, test.Rows)
	fill := func(x *mat.Matrix, i int, c []float64) {
		for j := 0; j < testDim; j++ {
			x.Data[i*testDim+j] = c[j] + rng.NormFloat64()*0.5
		}
	}
	for cl, c := range centers {
		for k := 0; k < perClassTrain; k++ {
			fill(train, len(trainY), c)
			trainY = append(trainY, cl)
		}
		for k := 0; k < perClassTest; k++ {
			fill(test, len(testY), c)
			testY = append(testY, cl)
		}
	}
	var scaler preprocess.StandardScaler
	raw := mat.New(20, 18)
	for i := range raw.Data {
		raw.Data[i] = rng.NormFloat64()
	}
	if _, err := scaler.FitTransform(raw); err != nil {
		t.Fatal(err)
	}
	return &core.FeaturePair{TrainX: train, TrainY: trainY, TestX: test, TestY: testY, Scaler: &scaler}
}

// noveltyFamily clusters a blob far from every base class into one Family.
func noveltyFamily(t *testing.T, seed int64, n int) []Family {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := blob(rng, n, []float64{-8, -8, -8, -8, -8, -8}, 0.5)
	fams := Cluster(rows, nil, 4, n/2, 0)
	if len(fams) != 1 {
		t.Fatalf("novelty blob clustered into %d families, want 1", len(fams))
	}
	return fams
}

func rawRef(seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	raw := mat.New(500, 3)
	for i := range raw.Data {
		raw.Data[i] = rng.NormFloat64()*2 + 4
	}
	return raw
}

func TestBuildCandidateArtifactWidensClassSet(t *testing.T) {
	fp := featureFixture(t, 11)
	fams := noveltyFamily(t, 12, 48)
	base := artifact.Metadata{
		ClassNames: []string{"a", "b", "c", "d"},
		Dataset:    "60-middle-1", Scale: 0.1, Seed: 7, Tool: "wcctrain",
	}
	a, err := BuildCandidateArtifact(fp, rawRef(13), fams, CandidateOptions{BaseMeta: base, Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Meta.ClassNames) != 5 {
		t.Fatalf("candidate has %d classes, want 5", len(a.Meta.ClassNames))
	}
	if a.Meta.ClassNames[4] != "novel-0" {
		t.Fatalf("novel class named %q, want novel-0", a.Meta.ClassNames[4])
	}
	if a.Meta.NovelClasses != 1 {
		t.Fatalf("NovelClasses %d, want 1", a.Meta.NovelClasses)
	}
	if a.Meta.AdaptedFrom == "" {
		t.Fatal("AdaptedFrom not stamped")
	}
	if a.Scaler != fp.Scaler {
		t.Fatal("candidate must reuse the serving scaler verbatim (hot-swap compatibility gate)")
	}
	if a.Drift == nil || a.Drift.Feat == nil {
		t.Fatal("candidate carries no refreshed drift calibration")
	}
	if a.Meta.Accuracy < 0.9 {
		t.Fatalf("base accuracy %.3f collapsed on separable blobs", a.Meta.Accuracy)
	}

	// The candidate classifies held-back novelty rows as the new class and
	// the refreshed feature gate accepts them.
	model := a.Model.(probaClassifier)
	probe := fams[0].Rows
	probs, err := model.PredictProba(probe)
	if err != nil {
		t.Fatal(err)
	}
	asNovel, rejected := 0, 0
	for i := 0; i < probs.Rows; i++ {
		if mat.ArgMax(probs.Row(i)) == 4 {
			asNovel++
		}
		if sc, _ := a.Drift.ScoreFrom(probe.Row(i), -1); a.Drift.Threshold.Reject(sc) {
			rejected++
		}
	}
	if asNovel < probs.Rows*9/10 {
		t.Fatalf("only %d/%d family rows classified as the novel class", asNovel, probs.Rows)
	}
	// The threshold is quantile-calibrated, so a straggler row may still
	// fall under it; what must not survive is wholesale rejection.
	if rejected > probs.Rows/10 {
		t.Fatalf("refreshed calibration still rejects %d/%d family rows", rejected, probs.Rows)
	}
}

func TestBuildCandidateNovelNumberingContinues(t *testing.T) {
	fp := featureFixture(t, 21)
	fams := noveltyFamily(t, 22, 40)
	base := artifact.Metadata{
		ClassNames:   []string{"a", "b", "c", "d", "novel-0"},
		NovelClasses: 1,
		Dataset:      "60-middle-1", Seed: 7,
	}
	// A 5-class base that already grew novel-0: the base fixture is 4-class,
	// so widen TrainY labels is unnecessary — class count comes from
	// ClassNames, and the new family must become novel-1, not a second
	// novel-0.
	a, err := BuildCandidateArtifact(fp, rawRef(23), fams, CandidateOptions{BaseMeta: base, Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := a.Meta.ClassNames[len(a.Meta.ClassNames)-1]
	if got != "novel-1" {
		t.Fatalf("second-generation novel class named %q, want novel-1", got)
	}
	if a.Meta.NovelClasses != 2 {
		t.Fatalf("NovelClasses %d, want 2", a.Meta.NovelClasses)
	}
}

func TestBuildCandidateRejectsBadInputs(t *testing.T) {
	fp := featureFixture(t, 31)
	if _, err := BuildCandidateArtifact(fp, rawRef(32), nil, CandidateOptions{}); err == nil {
		t.Fatal("no families accepted")
	}
	fams := noveltyFamily(t, 33, 40)
	bare := *fp
	bare.Scaler = nil
	if _, err := BuildCandidateArtifact(&bare, rawRef(34), fams, CandidateOptions{}); err == nil {
		t.Fatal("missing scaler accepted: the candidate would fail the swap compatibility gate")
	}
}

func TestFamiliesEncodeDecodeRoundTrip(t *testing.T) {
	fams := noveltyFamily(t, 41, 32)
	var buf bytes.Buffer
	if err := EncodeFamilies(&buf, fams); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFamilies(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fams) {
		t.Fatalf("round trip produced %d families, want %d", len(got), len(fams))
	}
	for i := range fams {
		w, g := fams[i], got[i]
		if g.ID != w.ID || g.Count != w.Count {
			t.Fatalf("family %d header changed: %+v vs %+v", i, g, w)
		}
		if g.Rows.Rows != w.Rows.Rows || g.Rows.Cols != w.Rows.Cols {
			t.Fatalf("family %d shape changed: %dx%d vs %dx%d", i, g.Rows.Rows, g.Rows.Cols, w.Rows.Rows, w.Rows.Cols)
		}
		for k := range w.Rows.Data {
			if g.Rows.Data[k] != w.Rows.Data[k] {
				t.Fatalf("family %d row data diverged at %d", i, k)
			}
		}
	}
	if _, err := DecodeFamilies(bytes.NewReader([]byte("{\"feature_dim\":2,\"families\":[{\"id\":0,\"rows\":[[1,2,3]]}]}"))); err == nil {
		t.Fatal("dimension-mismatched bundle accepted")
	}
}

// TestProvenanceTrainerReadsCapsAndSizeFromTheBase pins that a retrain needs
// nothing but the serving artifact: the regenerated base set is capped by
// the artifact's recorded max_train/max_test, and the candidate forest is
// as large as the base forest.
func TestProvenanceTrainerReadsCapsAndSizeFromTheBase(t *testing.T) {
	meta := artifact.Metadata{
		Kind: artifact.KindForest, Features: "cov", Dataset: "60-middle-1",
		Scale: 0.03, Seed: 1, MaxTrain: 40, MaxTest: 20, Tool: "wcctrain",
	}
	spec, _ := dataset.SpecByName(meta.Dataset)
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: meta.Seed, Scale: meta.Scale, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := core.BuildDataset(sim, spec, meta.Seed, meta.MaxTrain, meta.MaxTest)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Train.Len() != meta.MaxTrain {
		t.Fatalf("fixture has %d training trials; the %d cap must bind for the test to mean anything", ch.Train.Len(), meta.MaxTrain)
	}
	fp, err := core.CovFeatures(ch)
	if err != nil {
		t.Fatal(err)
	}
	base := forest.New(forest.Config{NumTrees: 7, Bootstrap: true, Seed: 1})
	if err := base.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)); err != nil {
		t.Fatal(err)
	}

	fam := Family{Count: 8, Rows: mat.New(8, fp.TrainX.Cols)}
	for i := range fam.Rows.Data {
		fam.Rows.Data[i] = 50 + float64(i%5)
	}
	a, err := (&ProvenanceTrainer{Meta: meta, Scaler: fp.Scaler, Base: base}).Train([]Family{fam})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Model.(*forest.Classifier).NumTrees(); got != base.NumTrees() {
		t.Fatalf("candidate forest has %d trees, want the base's %d", got, base.NumTrees())
	}
	// The refreshed calibration keeps every training row (base + family
	// rows not held out) while they number under drift.MaxTrainRows.
	wantRows := meta.MaxTrain + fam.Count - fam.Count/heldOutEvery
	if got := a.Drift.Feat.Train.Rows; got != wantRows {
		t.Fatalf("candidate trained on %d rows, want %d (%d capped base + family)", got, wantRows, meta.MaxTrain)
	}
	if a.Meta.MaxTrain != meta.MaxTrain || a.Meta.MaxTest != meta.MaxTest {
		t.Fatalf("candidate records caps %d/%d, want the base's %d/%d", a.Meta.MaxTrain, a.Meta.MaxTest, meta.MaxTrain, meta.MaxTest)
	}
}
