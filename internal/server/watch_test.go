package server

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
)

// watchNames is what the replacement artifacts call their classes — not
// what newTestServer boots with, so a swap that lands is visible in names.
var watchNames = []string{"idle", "train", "infer", "novel-0"}

// saveWatchArtifact writes a .wcc artifact with the given tool string (the
// padding knob the size-equalisation below turns).
func saveWatchArtifact(t *testing.T, path string, scaler *preprocess.StandardScaler, model *forest.Classifier, tool string) int64 {
	t.Helper()
	err := artifact.Save(path, &artifact.Artifact{
		Meta: artifact.Metadata{
			Features: "cov", Window: testWindow, Sensors: testSensors,
			Accuracy: 0.5, CreatedUnix: 1234, Tool: tool, ClassNames: watchNames,
		},
		Scaler: scaler,
		Model:  model,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// altForest trains a second forest whose predictions differ from fixture's.
func altForest(t *testing.T) *forest.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	dim := preprocess.CovarianceDim(testSensors)
	x := mat.New(200, dim)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(4)
	}
	f := forest.New(forest.Config{NumTrees: 9, MaxDepth: 5, Bootstrap: true, Seed: 77})
	if err := f.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWatchDetectsSameStatReplacement is the regression test for the
// stat-based watcher miss: a retrained artifact renamed into place with the
// same byte length and the same mtime as its predecessor must still be
// hot-swapped, because replacement detection compares section CRCs via
// artifact.Identity rather than os.Stat. The swap goes through the server's
// installer, so it also renames the classes — with no callback involved.
func TestWatchDetectsSameStatReplacement(t *testing.T) {
	scaler, modelA := fixture(t)
	modelB := altForest(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.wcc")
	pathB := filepath.Join(dir, "replacement.wcc")

	// Equalise file sizes by padding the smaller artifact's tool string:
	// meta is plain-ASCII JSON, so one pad byte is one file byte.
	sizeA := saveWatchArtifact(t, path, scaler, modelA, "watch-test")
	sizeB := saveWatchArtifact(t, pathB, scaler, modelB, "watch-test")
	if diff := sizeA - sizeB; diff > 0 {
		saveWatchArtifact(t, pathB, scaler, modelB, "watch-test"+strings.Repeat("x", int(diff)))
	} else if diff < 0 {
		sizeA = saveWatchArtifact(t, path, scaler, modelA, "watch-test"+strings.Repeat("x", int(-diff)))
	}

	stA, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(pathB, stA.ModTime(), stA.ModTime()); err != nil {
		t.Fatal(err)
	}
	// The premise of the regression: identical stat signature.
	stB, err := os.Stat(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Size() != stA.Size() || !stB.ModTime().Equal(stA.ModTime()) {
		t.Fatalf("fixture broke its own premise: size %d/%d mtime %v/%v",
			stA.Size(), stB.Size(), stA.ModTime(), stB.ModTime())
	}
	// ...but different content identity.
	identA, err := artifact.Identity(path)
	if err != nil {
		t.Fatal(err)
	}
	identB, err := artifact.Identity(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if identA == identB {
		t.Fatal("replacement artifact has the same content identity")
	}

	srv, monitor, ts := newTestServer(t, nil) // boots on fixture's scaler and modelA
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(stop, WatchConfig{Path: path, Every: 2 * time.Millisecond, Swap: srv.InstallFile})
	}()
	defer func() { close(stop); <-done }()

	// Let the watcher record the original identity, then atomically rename
	// the replacement into place (rename preserves mtime).
	time.Sleep(50 * time.Millisecond)
	if err := os.Rename(pathB, path); err != nil {
		t.Fatal(err)
	}

	// The names are the last thing Install sets, so seeing them means the
	// whole swap landed.
	for deadline := time.Now().Add(5 * time.Second); !reflect.DeepEqual(srv.ClassNames(), watchNames); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("same-size same-mtime replacement was never hot-swapped: %d swaps, class names %v, want %v",
				monitor.Swaps(), srv.ClassNames(), watchNames)
		}
	}
	if n := monitor.Swaps(); n != 1 {
		t.Fatalf("monitor saw %d swaps, want 1", n)
	}

	// The swapped model must actually serve: predictions now come from
	// the replacement forest.
	samples := jobSamples(21, testWindow)
	for _, s := range samples {
		if err := monitor.Ingest(21, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := monitor.Tick(); err != nil {
		t.Fatal(err)
	}
	got, ok := monitor.Prediction(21)
	if !ok {
		t.Fatal("no prediction after swap")
	}
	if want := baseline(t, scaler, modelB, samples); !predictionEqual(got, want) {
		t.Fatalf("post-swap prediction (%d, %v) does not match the replacement model (%d, %v)",
			got.Class, got.Probability, want.Class, want.Probability)
	}
	// ...and the API names it the way the replacement artifact does.
	var pr predictionResponse
	getJSON(t, ts.URL+"/v1/jobs/21/prediction", &pr)
	if pr.ClassName != watchNames[got.Class] {
		t.Fatalf("served class_name %q for class %d, want %q", pr.ClassName, got.Class, watchNames[got.Class])
	}
}

// TestWatchRejectsIncompatibleArtifact pins the swap safety boundary:
// per-job window state survives a swap, so an artifact the gate refuses —
// different scaler statistics, or a calibration that does not fit the
// fleet's sensor count or embedding width — is skipped with the gate's
// reason, not installed, and the core and the class names stay untouched.
func TestWatchRejectsIncompatibleArtifact(t *testing.T) {
	scaler, modelA := fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.wcc")
	saveWatchArtifact(t, path, scaler, modelA, "watch-test")

	srv, monitor, _ := newTestServer(t, nil)
	skipped := make(chan string, 4)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(stop, WatchConfig{
			Path: path, Every: 2 * time.Millisecond, Swap: srv.InstallFile,
			Logf: func(format string, args ...any) {
				select {
				case skipped <- fmt.Sprintf(format, args...):
				default:
				}
			},
		})
	}()
	defer func() { close(stop); <-done }()
	time.Sleep(50 * time.Millisecond)

	other := *scaler
	other.Means = append([]float64(nil), scaler.Means...)
	other.Means[0] += 1 // different training statistics

	// A reference fitted over one raw column too many: the artifact the
	// cluster prepare-phase test offers a 3-node fleet.
	wideRaw := mat.New(400, testSensors+1)
	for i := range wideRaw.Data {
		wideRaw.Data[i] = float64(i % 17)
	}
	wideRef, err := drift.FitReference(wideRaw, 10)
	if err != nil {
		t.Fatal(err)
	}
	fits := driftCalibration(t, modelA)
	fourSensors, wrongWidth, noRef := *fits, *fits, *fits
	fourSensors.Ref = wideRef
	wrongWidth.Feat = &drift.FeatureStats{
		Means: fits.Feat.Means[1:], Stds: fits.Feat.Stds[1:],
		Train: mat.New(1, len(fits.Feat.Means)-1),
	}
	noRef.Ref = nil

	for _, tc := range []struct {
		name   string
		scaler *preprocess.StandardScaler
		cal    *drift.Calibration
		want   string
	}{
		{"scaler statistics differ", &other, nil, "scaler statistics differ"},
		{"reference over 4 sensors", scaler, &fourSensors, "drift reference covers 4 sensors, fleet has 3"},
		{"feature statistics of the wrong width", scaler, &wrongWidth, "drift feature statistics cover 5 features, embedding has 6"},
	} {
		err := artifact.Save(path, &artifact.Artifact{
			Meta: artifact.Metadata{
				Features: "cov", Window: testWindow, Sensors: testSensors,
				Tool: tc.name, ClassNames: watchNames,
			},
			Scaler: tc.scaler,
			Drift:  tc.cal,
			Model:  modelA,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		select {
		case msg := <-skipped:
			if !strings.Contains(msg, "model reload skipped") || !strings.Contains(msg, tc.want) {
				t.Fatalf("%s: skip reason %q, want %q", tc.name, msg, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: incompatible artifact never reported as skipped", tc.name)
		}
	}

	// A calibration with no input reference cannot be written to a file (the
	// codec refuses it), so it can only reach Install in memory.
	err = srv.Install(&artifact.Artifact{
		Meta:   artifact.Metadata{Features: "cov", Window: testWindow, Sensors: testSensors, ClassNames: watchNames},
		Scaler: scaler,
		Drift:  &noRef,
		Model:  modelA,
	})
	if err == nil || !strings.Contains(err.Error(), "carries no input reference") {
		t.Fatalf("Install with a reference-less calibration = %v, want the gate's refusal", err)
	}

	if n := monitor.Swaps(); n != 0 {
		t.Fatalf("incompatible artifact was swapped in (%d swaps)", n)
	}
	if monitor.DriftStats().Enabled {
		t.Fatal("a refused calibration reached the core")
	}
	if got := srv.ClassNames(); reflect.DeepEqual(got, watchNames) {
		t.Fatalf("refused artifact still renamed the classes to %v", got)
	}
}
