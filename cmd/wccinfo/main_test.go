package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestArtifactReport pins what wccinfo prints for the checked-in v1 golden
// artifact: its kind, window and the section table with lengths and CRCs.
func TestArtifactReport(t *testing.T) {
	const golden = "../../internal/artifact/testdata/golden_v1.wcc"
	var out bytes.Buffer
	if err := run(&out, golden, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		golden + ": model artifact (format v1)\n",
		"  kind:      forest\n",
		"  features:  cov\n",
		"  window:    4x3\n",
		"  classes:   3 (vgg, resnet, bert, ...)\n",
		"  sections:\n" +
			"    meta          211 bytes  crc32 2f758f89\n" +
			"    scaler        210 bytes  crc32 08b0f81d\n" +
			"    model        3952 bytes  crc32 15970517\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestArchiveReport pins the .npz report on an archive in the layout wccgen
// writes (Challenge.ToArchive, the call its run makes): member shapes and
// dtypes, the label distribution under the model names, and -stats.
func TestArchiveReport(t *testing.T) {
	set := func(labels []int, names []string) *dataset.Set {
		x := dataset.NewTensor3(len(labels), 2, 3)
		for i := range x.Data {
			x.Data[i] = float32(i % 3) // sensor c reads c in every sample
		}
		return &dataset.Set{X: x, Y: labels, Models: names}
	}
	ch := &dataset.Challenge{
		Train: set([]int{4, 0, 4, 4}, []string{"bert", "vgg", "bert", "bert"}),
		Test:  set([]int{0}, []string{"vgg"}),
	}
	ar, err := ch.ToArchive()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.npz")
	if err := ar.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, path, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  X_test       shape=[1 2 3] dtype=<f4\n",
		"  X_train      shape=[4 2 3] dtype=<f4\n",
		"  y_train      shape=[4] dtype=<i8\n",
		"  model_train  shape=[4] dtype=<U4\n",
		"  label distribution (train, 2 classes):\n" +
			"    vgg                  1\n" +
			"    bert                 3\n",
		"  per-sensor statistics over 4 trials x 2 samples:\n",
		"mean=      2.00 std²=        0.00 min=      2.00 max=      2.00\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	if err := run(&bytes.Buffer{}, filepath.Join(t.TempDir(), "missing.npz"), false); err == nil {
		t.Error("a missing file should fail")
	}
}
