package artifact

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
)

// driftArtifact builds a small artifact carrying a drift calibration.
func driftArtifact(t *testing.T) *Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	x := mat.New(60, 6)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(3)
	}
	f := forest.New(forest.Config{NumTrees: 4, MaxDepth: 3, Bootstrap: true, Seed: 99})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	probs, err := f.PredictProba(x)
	if err != nil {
		t.Fatal(err)
	}
	raw := mat.New(500, 3)
	for i := range raw.Data {
		raw.Data[i] = rng.NormFloat64()*5 + 20
	}
	cal, err := drift.Fit(drift.FitInput{
		Probs: probs, TrainFeatures: x, HeldOutFeatures: x, RawSamples: raw,
	}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scaler := &preprocess.StandardScaler{}
	flat := mat.New(20, 12)
	for i := range flat.Data {
		flat.Data[i] = rng.NormFloat64()
	}
	if err := scaler.Fit(flat); err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Meta:   Metadata{Features: "cov", Window: 4, Sensors: 3},
		Scaler: scaler,
		Drift:  cal,
		Model:  f,
	}
}

// TestDriftSectionRoundTrip pins that a calibration survives the container
// bit for bit and surfaces through both Load and the cheap ReadInfo path.
func TestDriftSectionRoundTrip(t *testing.T) {
	a := driftArtifact(t)
	path := filepath.Join(t.TempDir(), "drift.wcc")
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}

	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Drift == nil {
		t.Fatal("drift section lost through the container")
	}
	if got.Drift.Threshold != a.Drift.Threshold {
		t.Fatalf("threshold drifted: %+v vs %+v", got.Drift.Threshold, a.Drift.Threshold)
	}
	if !reflect.DeepEqual(got.Drift.Ref, a.Drift.Ref) {
		t.Fatal("reference drifted through the container")
	}

	info, err := ReadInfoDetail(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Drift == nil {
		t.Fatal("ReadInfoDetail did not surface the drift section")
	}
	if info.Drift.Threshold != a.Drift.Threshold {
		t.Fatal("ReadInfoDetail decoded a different threshold")
	}
	if !sectionPresent(info.Sections, "drift") {
		t.Fatal("section table does not list drift")
	}
	// The watcher's polling path stays cheap: ReadInfo lists the section
	// but never decodes it.
	cheap, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Drift != nil {
		t.Fatal("ReadInfo decoded the drift section on the cheap path")
	}
	if !sectionPresent(cheap.Sections, "drift") {
		t.Fatal("ReadInfo section table does not list drift")
	}
}

// TestArtifactWithoutDriftLoadsDisabled pins backward compatibility: an
// artifact written without a calibration decodes with Drift nil on both
// paths, and encoding without Drift never emits the section.
func TestArtifactWithoutDriftLoadsDisabled(t *testing.T) {
	a := driftArtifact(t)
	a.Drift = nil
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Drift != nil {
		t.Fatal("drift materialised from nowhere")
	}
	path := filepath.Join(t.TempDir(), "plain.wcc")
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}
	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Drift != nil || sectionPresent(info.Sections, "drift") {
		t.Fatal("drift section present on a plain artifact")
	}
}

// TestDriftSectionCorruption pins that a corrupted drift payload is caught
// by the section CRC before the calibration decoder ever runs.
func TestDriftSectionCorruption(t *testing.T) {
	a := driftArtifact(t)
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Find the drift payload: sections are laid out in table order, so
	// locate it by walking the declared lengths.
	info, err := func() (*Info, error) {
		path := filepath.Join(t.TempDir(), "x.wcc")
		if err := Save(path, a); err != nil {
			return nil, err
		}
		return ReadInfo(path)
	}()
	if err != nil {
		t.Fatal(err)
	}
	offset := len(raw)
	for _, s := range info.Sections {
		offset -= int(s.Length)
	}
	for _, s := range info.Sections {
		if s.Name == "drift" {
			raw[offset+int(s.Length)/2] ^= 0xff
			break
		}
		offset += int(s.Length)
	}
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted drift section decoded successfully")
	}
}
