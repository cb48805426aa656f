package artifact

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/wire"
	"repro/internal/xgb"
)

// fixtureForest trains a small deterministic forest + scaler and returns an
// evaluation matrix in embedding space.
func fixtureForest(t *testing.T, seed int64) (*forest.Classifier, *preprocess.StandardScaler, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flat := mat.New(30, 18)
	for i := range flat.Data {
		flat.Data[i] = rng.NormFloat64()*2 + 3
	}
	scaler := &preprocess.StandardScaler{}
	if err := scaler.Fit(flat); err != nil {
		t.Fatal(err)
	}

	x := mat.New(100, 6)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(3)
	}
	f := forest.New(forest.Config{NumTrees: 8, MaxDepth: 6, Bootstrap: true, Seed: seed})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	eval := mat.New(40, 6)
	for i := range eval.Data {
		eval.Data[i] = rng.NormFloat64()
	}
	return f, scaler, eval
}

func encodeToBytes(t *testing.T, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripForestWithScaler(t *testing.T) {
	f, scaler, eval := fixtureForest(t, 1)
	a := &Artifact{
		Meta: Metadata{
			ClassNames: []string{"vgg", "resnet", "bert"},
			Features:   "cov",
			Window:     6, Sensors: 3,
			Dataset: "60-middle-1", Scale: 0.1, Seed: 1,
			Accuracy: 0.875, CreatedUnix: 1700000000, Tool: "test",
		},
		Scaler: scaler,
		Model:  f,
	}
	raw := encodeToBytes(t, a)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Kind != KindForest {
		t.Fatalf("kind %q", got.Meta.Kind)
	}
	if got.Meta.Dataset != "60-middle-1" || got.Meta.Accuracy != 0.875 || len(got.Meta.ClassNames) != 3 {
		t.Fatalf("metadata did not survive: %+v", got.Meta)
	}
	if !got.Scaler.Equal(scaler) {
		t.Fatal("scaler did not survive bit-identically")
	}
	gotF, ok := got.Model.(*forest.Classifier)
	if !ok {
		t.Fatalf("model type %T", got.Model)
	}
	want, err := f.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	have, err := gotF.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if have.Data[i] != want.Data[i] {
			t.Fatalf("prob[%d]: %v vs %v (not bit-identical)", i, have.Data[i], want.Data[i])
		}
	}
}

func TestRoundTripEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := mat.New(80, 5)
	y := make([]int, x.Rows)
	for i := range y {
		y[i] = rng.Intn(3)
		row := x.Row(i)
		for c := range row {
			row[c] = rng.NormFloat64() + float64(y[i])
		}
	}

	xg := xgb.New(xgb.Config{NumRounds: 4, MaxDepth: 3, Seed: 2})
	if err := xg.Fit(x, y, 3, nil, nil); err != nil {
		t.Fatal(err)
	}
	rf := forest.New(forest.Config{NumTrees: 4, MaxDepth: 3, Seed: 2})
	if err := rf.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		kind  string
		model Model
	}{
		{KindForest, rf},
		{KindXGB, xg},
	}
	for _, tc := range cases {
		raw := encodeToBytes(t, &Artifact{Model: tc.model})
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if got.Meta.Kind != tc.kind {
			t.Fatalf("kind %q, want %q", got.Meta.Kind, tc.kind)
		}
		if k, err := ModelKind(got.Model); err != nil || k != tc.kind {
			t.Fatalf("%s: decoded model kind %q, %v", tc.kind, k, err)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	if err := Encode(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil artifact should fail")
	}
	if err := Encode(&bytes.Buffer{}, &Artifact{}); err == nil {
		t.Error("nil model should fail")
	}
	// A Model that is neither estimator has no kind to record.
	if err := Encode(&bytes.Buffer{}, &Artifact{Model: struct{ Model }{}}); err == nil {
		t.Error("unsupported model type should fail")
	}
	f, _, _ := fixtureForest(t, 3)
	if err := Encode(&bytes.Buffer{}, &Artifact{Meta: Metadata{Kind: KindXGB}, Model: f}); err == nil {
		t.Error("kind/type mismatch should fail")
	}
}

func TestDecodeWrongMagic(t *testing.T) {
	_, err := Decode(bytes.NewReader([]byte("PK\x03\x04 definitely a zip file")))
	if err == nil || !strings.Contains(err.Error(), "not a .wcc artifact") {
		t.Fatalf("err = %v", err)
	}
	// An npz (zip) header must also be rejected cleanly.
	if _, err := Decode(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("zeroed input accepted")
	}
}

func TestDecodeFutureVersion(t *testing.T) {
	f, _, _ := fixtureForest(t, 4)
	raw := encodeToBytes(t, &Artifact{Model: f})
	binary.LittleEndian.PutUint32(raw[8:], FormatVersion+1)
	_, err := Decode(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeTruncations(t *testing.T) {
	f, scaler, _ := fixtureForest(t, 5)
	raw := encodeToBytes(t, &Artifact{Scaler: scaler, Model: f})
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(raw))
		}
	}
}

// TestDecodeByteFlips corrupts every byte of a small artifact in turn; every
// variant must produce an error — never a panic, never a silent misload.
func TestDecodeByteFlips(t *testing.T) {
	f, scaler, _ := fixtureForest(t, 6)
	raw := encodeToBytes(t, &Artifact{Scaler: scaler, Model: f})
	mut := make([]byte, len(raw))
	for i := range raw {
		copy(mut, raw)
		mut[i] ^= 0xFF
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d of %d decoded successfully", i, len(raw))
		}
	}
}

// craftContainer assembles a raw container from arbitrary sections, for
// corruption cases Encode itself refuses to produce.
func craftContainer(t *testing.T, version uint32, sections []struct {
	name    string
	payload []byte
}) []byte {
	t.Helper()
	var head bytes.Buffer
	ww := wire.NewWriter(&head)
	ww.U32(version)
	ww.U32(uint32(len(sections)))
	for _, s := range sections {
		ww.String(s.name)
		ww.U64(uint64(len(s.payload)))
		ww.U32(crc32.ChecksumIEEE(s.payload))
	}
	if err := ww.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.Write(head.Bytes())
	wire.NewWriter(&buf).U32(crc32.ChecksumIEEE(head.Bytes()))
	for _, s := range sections {
		buf.Write(s.payload)
	}
	return buf.Bytes()
}

func TestDecodeCraftedCorruption(t *testing.T) {
	type sec = struct {
		name    string
		payload []byte
	}

	// Unknown model kind in otherwise-valid metadata — a kind no build
	// ever wrote, and the kinds earlier builds wrote for models no core
	// could serve.
	var raw []byte
	for _, kind := range []string{"quantum-forest", "svm", "linear-svm", "bilstm", "cnnlstm", "convlstm"} {
		raw = craftContainer(t, FormatVersion, []sec{
			{"meta", []byte(`{"kind":"` + kind + `"}`)},
			{"model", []byte{1, 0}},
		})
		if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "unknown model kind") {
			t.Errorf("kind %q err = %v", kind, err)
		}
	}

	// Missing model section.
	raw = craftContainer(t, FormatVersion, []sec{{"meta", []byte(`{"kind":"forest"}`)}})
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "missing model section") {
		t.Errorf("missing model err = %v", err)
	}

	// Missing meta section.
	raw = craftContainer(t, FormatVersion, []sec{{"model", []byte{1, 0}}})
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "missing meta section") {
		t.Errorf("missing meta err = %v", err)
	}

	// Invalid JSON metadata.
	raw = craftContainer(t, FormatVersion, []sec{
		{"meta", []byte(`{"kind":`)},
		{"model", []byte{1, 0}},
	})
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "corrupt metadata") {
		t.Errorf("bad json err = %v", err)
	}
}

// TestDecodeSkipsUnknownSections pins minor-version forward compatibility: a
// file carrying an extra section a newer writer added still loads, and so
// does one carrying the retired pca section, whatever is in it.
func TestDecodeSkipsUnknownSections(t *testing.T) {
	f, _, eval := fixtureForest(t, 7)
	var model bytes.Buffer
	if err := f.Encode(&model); err != nil {
		t.Fatal(err)
	}
	raw := craftContainer(t, FormatVersion, []struct {
		name    string
		payload []byte
	}{
		{"meta", []byte(`{"kind":"forest"}`)},
		{"calibration", []byte("future section payload")},
		{"pca", []byte{1, 0}},
		{"model", model.Bytes()},
	})
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	gotF := got.Model.(*forest.Classifier)
	want, _ := f.PredictProba(eval)
	have, err := gotF.PredictProba(eval)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if have.Data[i] != want.Data[i] {
			t.Fatalf("prob[%d] differs after unknown-section skip", i)
		}
	}
}

func TestSaveLoadAndReadInfo(t *testing.T) {
	f, scaler, _ := fixtureForest(t, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.wcc")
	a := &Artifact{
		Meta:   Metadata{Features: "cov", Window: 6, Sensors: 3, Dataset: "60-middle-1", Accuracy: 0.9},
		Scaler: scaler,
		Model:  f,
	}
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}
	// Atomic save leaves no temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Save", len(entries))
	}

	if !Sniff(path) {
		t.Error("Sniff should recognise the artifact")
	}
	if Sniff(filepath.Join(dir, "missing")) {
		t.Error("Sniff on a missing file")
	}

	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Kind != KindForest || got.Scaler == nil {
		t.Fatalf("loaded %+v", got.Meta)
	}

	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != FormatVersion || info.Meta.Dataset != "60-middle-1" {
		t.Fatalf("info %+v", info)
	}
	names := make([]string, len(info.Sections))
	for i, s := range info.Sections {
		names[i] = s.Name
	}
	if names[0] != "meta" || len(names) != 3 {
		t.Fatalf("sections %v", names)
	}
}

// TestLyingSectionLengthAllocatesLittle: a 45-byte file with a valid header
// CRC and one section claiming maxSectionLen fails as truncated having
// allocated for the bytes present, not the gigabyte claimed — through Decode
// (a swap, a peer's replicate) and through Identity (the watcher's poll).
func TestLyingSectionLengthAllocatesLittle(t *testing.T) {
	var head bytes.Buffer
	ww := wire.NewWriter(&head)
	ww.U32(FormatVersion)
	ww.U32(1)
	ww.String(sectionModel)
	ww.U64(maxSectionLen)
	ww.U32(0)
	if err := ww.Err(); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	file.Write(Magic[:])
	file.Write(head.Bytes())
	wire.NewWriter(&file).U32(crc32.ChecksumIEEE(head.Bytes()))
	if file.Len() != 45 {
		t.Fatalf("crafted file is %d bytes", file.Len())
	}
	path := filepath.Join(t.TempDir(), "liar.wcc")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() error{
		"Decode":   func() error { _, err := Decode(bytes.NewReader(file.Bytes())); return err },
		"Identity": func() error { _, err := Identity(path); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s = %v, want a truncated-section error", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte file", name, got, file.Len())
		}
	}
}
