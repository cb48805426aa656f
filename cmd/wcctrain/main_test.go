package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestRunRefusesBeforeSimulating drives unusable flag values through run and
// runFamilies. Every row leaves scale at 0, so had run reached the simulator
// its scale error would surface instead of the one the row expects; nothing,
// not even the dataset banner, is printed.
func TestRunRefusesBeforeSimulating(t *testing.T) {
	const needsServable = "-o needs -model rf or xgb with -features cov"
	for _, tc := range []struct {
		name string
		o    opts
		want string
	}{
		{"unknown model", opts{model: "gru", features: "cov", dsName: "60-middle-1"}, `unknown model "gru"`},
		{"unknown features", opts{model: "rf", features: "fft", dsName: "60-middle-1"}, `unknown features "fft"`},
		{"unknown dataset", opts{model: "rf", features: "cov", dsName: "61-nowhere"}, `unknown dataset "61-nowhere"`},
		{"unknown dataset, sequence model", opts{model: "lstm", dsName: "61-nowhere"}, `unknown dataset "61-nowhere"`},
		{"-o with svm", opts{model: "svm", features: "cov", dsName: "60-middle-1", out: "m.wcc"}, needsServable},
		{"-o with linear-svm", opts{model: "linear-svm", features: "cov", dsName: "60-middle-1", out: "m.wcc"}, needsServable},
		{"-o with lstm", opts{model: "lstm", features: "cov", dsName: "60-middle-1", out: "m.wcc"}, needsServable},
		{"-o with cnnlstm", opts{model: "cnnlstm", features: "cov", dsName: "60-middle-1", out: "m.wcc"}, needsServable},
		{"-o with rf on pca", opts{model: "rf", features: "pca", dsName: "60-middle-1", out: "m.wcc"}, needsServable},
	} {
		var out bytes.Buffer
		err := run(&out, tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before refusing:\n%s", tc.name, out.String())
		}
	}
	const missing = "testdata/does-not-exist"
	for _, tc := range []struct{ name, base, out, want string }{
		{"families without base", "", missing, "-families needs -base"},
		{"families without output", missing, "", "-families needs -o"},
	} {
		var out bytes.Buffer
		err := runFamilies(&out, missing, tc.base, tc.out, 0, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: runFamilies = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// payloadCRCs reads the checksums of the sections a model's behaviour lives
// in; the meta section carries a creation time and the producer's name.
func payloadCRCs(t *testing.T, path string) map[string]uint32 {
	t.Helper()
	info, err := artifact.ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	crcs := map[string]uint32{}
	for _, s := range info.Sections {
		if s.Name != "meta" {
			crcs[s.Name] = s.CRC
		}
	}
	for _, name := range []string{"scaler", "drift", "model"} {
		if _, ok := crcs[name]; !ok {
			t.Fatalf("%s has no %s section (sections %+v)", path, name, info.Sections)
		}
	}
	return crcs
}

func sameCRCs(t *testing.T, what string, got, want map[string]uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: sections %v, want %v", what, got, want)
	}
	for name, crc := range want {
		if got[name] != crc {
			t.Errorf("%s: %s section crc32 %08x, want %08x", what, name, got[name], crc)
		}
	}
}

// trainOpts is the command line `wcctrain -model m -features f -scale 0.03
// -max-train … -max-test … -trees 7 -rounds 3 -pca-dim 8 -o path` with the
// remaining flags at their defaults.
func trainOpts(model, features string, maxTrain, maxTest int, path string) opts {
	return opts{
		model: model, features: features, dsName: "60-middle-1", scale: 0.03, seed: 1,
		maxTrain: maxTrain, maxTest: maxTest, out: path,
		driftOn: true, driftQ: drift.DefaultQuantile, driftFeatQ: drift.DefaultFeatQuantile,
		pcaDim: 8, c: 1, trees: 7, rounds: 3, lambda: 1,
	}
}

// TestRFCovMatchesFacade: wcctrain's uncapped RF-Cov artifact and the
// facade's repro.SaveModel at the same dataset, scale, seed and forest size
// are the same model — one training path, two front ends.
func TestRFCovMatchesFacade(t *testing.T) {
	dir := t.TempDir()
	cli, facade := filepath.Join(dir, "cli.wcc"), filepath.Join(dir, "facade.wcc")
	var out bytes.Buffer
	if err := run(&out, trainOpts("rf", "cov", 0, 0, cli)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset 60-middle-1:", "test accuracy:", "calibrated open-set rejection at quantile 0.99", "saved forest artifact to " + cli} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	ds, err := repro.GenerateDataset("60-middle-1", 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.TrainRFCov(ds, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.SaveModel(facade, ds, res); err != nil {
		t.Fatal(err)
	}
	sameCRCs(t, "wcctrain vs repro.SaveModel", payloadCRCs(t, cli), payloadCRCs(t, facade))
}

// TestFamiliesMatchesInProcessTrainer pins runFamilies' doc comment: from
// the same base artifact and the same families, the offline command and the
// flywheel's in-process trainer write the same candidate. The base is
// calibrated off the default quantile, so both must inherit it — and an
// explicit -drift-quantile still wins.
func TestFamiliesMatchesInProcessTrainer(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.wcc")
	o := trainOpts("rf", "cov", 40, 20, basePath)
	o.driftQ = 0.9
	if err := run(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	base, err := artifact.Load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	fam := adapt.Family{Count: 8, Rows: mat.New(8, adapt.FeatureDimFor(base.Meta.Sensors))}
	for i := range fam.Rows.Data {
		fam.Rows.Data[i] = 50 + float64(i%5)
	}
	fams := []adapt.Family{fam}
	famPath := filepath.Join(dir, "families.json")
	f, err := os.Create(famPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := adapt.EncodeFamilies(f, fams); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	inProcess := filepath.Join(dir, "in-process.wcc")
	cand, err := adapt.NewProvenanceTrainer(base, nil).Train(fams)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.Save(inProcess, cand); err != nil {
		t.Fatal(err)
	}
	if got := cand.Drift.Threshold.Quantile; got != 0.9 {
		t.Errorf("in-process candidate calibrated at quantile %v, want the base's 0.9", got)
	}

	offline := filepath.Join(dir, "offline.wcc")
	var out bytes.Buffer
	if err := runFamilies(&out, famPath, basePath, offline, 0, drift.DefaultFeatQuantile); err != nil {
		t.Fatal(err)
	}
	if want := "saved 27-class candidate (1 novel,"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	sameCRCs(t, "wcctrain -families vs ProvenanceTrainer", payloadCRCs(t, offline), payloadCRCs(t, inProcess))

	if err := runFamilies(&bytes.Buffer{}, famPath, basePath, offline, 0.95, drift.DefaultFeatQuantile); err != nil {
		t.Fatal(err)
	}
	explicit, err := artifact.Load(offline)
	if err != nil {
		t.Fatal(err)
	}
	if got := explicit.Drift.Threshold.Quantile; got != 0.95 {
		t.Errorf("-drift-quantile 0.95 calibrated the candidate at %v", got)
	}
}

// TestArtifactsRoundTrip: what wcctrain -model xgb -o writes, artifact.Load
// reads back servable, with the metadata wccinfo prints and its drift section.
func TestArtifactsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xgb-cov.wcc")
	var out bytes.Buffer
	if err := run(&out, trainOpts("xgb", "cov", 40, 20, path)); err != nil {
		t.Fatal(err)
	}
	a, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m := a.Meta
	want := artifact.Metadata{
		Kind: artifact.KindXGB, ClassNames: telemetry.ClassNames(), Features: "cov",
		Window: 540, Sensors: int(telemetry.NumGPUSensors),
		Dataset: "60-middle-1", Scale: 0.03, Seed: 1, MaxTrain: 40, MaxTest: 20,
		Accuracy: m.Accuracy, CreatedUnix: m.CreatedUnix, Tool: "wcctrain",
	}
	if m.Accuracy <= 0 || m.CreatedUnix <= 0 || !reflect.DeepEqual(m, want) {
		t.Errorf("metadata %+v, want %+v with an accuracy and a creation time", m, want)
	}
	if a.Scaler == nil {
		t.Error("no scaler")
	}
	if _, err := server.Servable(a); err != nil {
		t.Errorf("Servable = %v", err)
	}
	// wccinfo's path to the drift line.
	info, err := artifact.ReadInfoDetail(path)
	if err != nil {
		t.Fatal(err)
	}
	d := info.Drift
	if d == nil || d.Feat == nil || d.Ref == nil || d.Threshold.Quantile != drift.DefaultQuantile || d.Ref.Sensors() != m.Sensors {
		t.Errorf("drift section %+v, want a full calibration at the default quantile", d)
	}
	if !strings.Contains(out.String(), "top-3 features by gain importance:") {
		t.Errorf("output lacks the importance report:\n%s", out.String())
	}
}

// TestUnsavedArmsStillReport: the arms -o refuses keep training and printing
// accuracy and the per-class report, and build no artifact to calibrate.
func TestUnsavedArmsStillReport(t *testing.T) {
	o := trainOpts("svm", "cov", 40, 20, "")
	o.report = true
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset 60-middle-1: 40 train / 20 test trials", "test accuracy: ", telemetry.ClassNames()[0]} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, not := range []string{"calibrated", "saved"} {
		if strings.Contains(out.String(), not) {
			t.Errorf("output mentions %q:\n%s", not, out.String())
		}
	}
}
