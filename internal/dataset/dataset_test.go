package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/npz"
	"repro/internal/telemetry"
)

func testSim(t testing.TB, scale float64) *telemetry.Simulator {
	t.Helper()
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1, Scale: scale, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestTensor3Basics(t *testing.T) {
	x := NewTensor3(2, 3, 4)
	x.Set(1, 2, 3, 9.5)
	if x.At(1, 2, 3) != 9.5 {
		t.Errorf("At = %v", x.At(1, 2, 3))
	}
	m, _ := mat.FromRows([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}})
	if err := x.SetTrial(0, m); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if got := x.At(0, r, c); got != m.At(r, c) {
				t.Errorf("SetTrial stored %v at (%d, %d), want %v", got, r, c, m.At(r, c))
			}
		}
	}
	if err := x.SetTrial(0, mat.New(2, 2)); err == nil {
		t.Error("wrong trial shape should fail")
	}
}

func TestTensor3Flatten(t *testing.T) {
	x := NewTensor3(2, 2, 2)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range vals {
		x.Data[i] = float32(v)
	}
	f := x.Flatten()
	if f.Rows != 2 || f.Cols != 4 {
		t.Fatalf("flatten shape %dx%d", f.Rows, f.Cols)
	}
	if f.At(1, 0) != 5 {
		t.Errorf("flatten content wrong: %v", f)
	}
}

func TestTensor3Downsample(t *testing.T) {
	x := NewTensor3(1, 10, 1)
	for i := 0; i < 10; i++ {
		x.Set(0, i, 0, float64(i))
	}
	d := x.Downsample(3)
	if d.T != 4 {
		t.Fatalf("downsample T = %d, want 4", d.T)
	}
	want := []float64{0, 3, 6, 9}
	for i, w := range want {
		if d.At(0, i, 0) != w {
			t.Errorf("downsample[%d] = %v, want %v", i, d.At(0, i, 0), w)
		}
	}
	same := x.Downsample(1)
	if same.T != 10 || same.At(0, 7, 0) != 7 {
		t.Error("stride 1 must copy")
	}
}

func TestTensor3SelectTrials(t *testing.T) {
	x := NewTensor3(3, 2, 1)
	for i := 0; i < 3; i++ {
		x.Set(i, 0, 0, float64(i*10))
	}
	sel := x.SelectTrials([]int{2, 0})
	if sel.N != 2 || sel.At(0, 0, 0) != 20 || sel.At(1, 0, 0) != 0 {
		t.Errorf("SelectTrials wrong: %+v", sel)
	}
}

func TestChallengeSpecs(t *testing.T) {
	if len(ChallengeSpecs) != 7 {
		t.Fatalf("want 7 challenge datasets per Table IV, got %d", len(ChallengeSpecs))
	}
	names := map[string]bool{}
	for _, s := range ChallengeSpecs {
		names[s.Name] = true
	}
	for _, want := range []string{"60-start-1", "60-middle-1", "60-random-1", "60-random-5"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
	}
	s, ok := SpecByName("60-middle-1")
	if !ok || s.Method != WindowMiddle {
		t.Errorf("SpecByName = %+v, %v", s, ok)
	}
	if _, ok := SpecByName("60-end-1"); ok {
		t.Error("unknown spec should not resolve")
	}
}

func TestWindowMethodString(t *testing.T) {
	if WindowStart.String() != "start" || WindowMiddle.String() != "middle" ||
		WindowRandom.String() != "random" {
		t.Error("WindowMethod strings wrong")
	}
}

func TestBuildShapesAndLabels(t *testing.T) {
	sim := testSim(t, 0.05)
	ch, err := Build(sim, ChallengeSpecs[0], DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Set{ch.Train, ch.Test} {
		if s.X.T != WindowSamples || s.X.C != 7 {
			t.Fatalf("window shape %dx%d", s.X.T, s.X.C)
		}
		if s.X.N != len(s.Y) || len(s.Y) != len(s.Models) {
			t.Fatalf("inconsistent lengths: %d trials, %d labels, %d models", s.X.N, len(s.Y), len(s.Models))
		}
		for i, y := range s.Y {
			if y < 0 || y >= int(telemetry.NumClasses) {
				t.Fatalf("label %d out of range", y)
			}
			if s.Models[i] != telemetry.Class(y).Name() {
				t.Fatalf("model name %q does not match label %d", s.Models[i], y)
			}
		}
	}
	// 80/20 split.
	total := float64(ch.Train.Len() + ch.Test.Len())
	frac := float64(ch.Train.Len()) / total
	if math.Abs(frac-0.8) > 0.05 {
		t.Errorf("train fraction %v, want ≈0.8", frac)
	}
}

func TestBuildTableIVOrdering(t *testing.T) {
	// start must have more trials than middle; middle ≥ each random (up to
	// gap noise). This is the Table IV eligibility shape.
	sim := testSim(t, 0.15)
	counts := map[string]int{}
	for _, spec := range ChallengeSpecs {
		ch, err := Build(sim, spec, DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		counts[spec.Name] = ch.Train.Len() + ch.Test.Len()
	}
	if counts["60-start-1"] <= counts["60-middle-1"] {
		t.Errorf("start (%d) must exceed middle (%d)", counts["60-start-1"], counts["60-middle-1"])
	}
	for i := 1; i <= 5; i++ {
		name := ChallengeSpecs[1+i].Name
		if counts[name] > counts["60-middle-1"] {
			t.Errorf("%s (%d) should not exceed middle (%d)", name, counts[name], counts["60-middle-1"])
		}
	}
}

func TestBuildRandomVariantsDiffer(t *testing.T) {
	sim := testSim(t, 0.05)
	opts := DefaultBuildOptions()
	ch1, err := Build(sim, ChallengeSpecs[2], opts) // 60-random-1
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := Build(sim, ChallengeSpecs[3], opts) // 60-random-2
	if err != nil {
		t.Fatal(err)
	}
	// Same trial universe, different window draws: tensors must differ.
	if ch1.Train.Len() == ch2.Train.Len() {
		same := true
		for i := 0; i < ch1.Train.X.N*ch1.Train.X.T*ch1.Train.X.C && same; i++ {
			if ch1.Train.X.Data[i] != ch2.Train.X.Data[i] {
				same = false
			}
		}
		if same {
			t.Error("random-1 and random-2 produced identical tensors")
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	sim := testSim(t, 0.03)
	opts := DefaultBuildOptions()
	a, err := Build(sim, ChallengeSpecs[2], opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(sim, ChallengeSpecs[2], opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Train.Len() != b.Train.Len() {
		t.Fatal("non-deterministic build size")
	}
	for i := range a.Train.X.Data {
		if a.Train.X.Data[i] != b.Train.X.Data[i] {
			t.Fatal("non-deterministic build content")
		}
	}
}

func TestBuildMaxTrials(t *testing.T) {
	sim := testSim(t, 0.05)
	opts := DefaultBuildOptions()
	opts.MaxTrialsPerSet = 50
	ch, err := Build(sim, ChallengeSpecs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Train.Len() > 50 || ch.Test.Len() > 50 {
		t.Errorf("truncation failed: %d/%d", ch.Train.Len(), ch.Test.Len())
	}
}

func TestBuildBadOptions(t *testing.T) {
	sim := testSim(t, 0.02)
	opts := DefaultBuildOptions()
	opts.TrainFrac = 0
	if _, err := Build(sim, ChallengeSpecs[0], opts); err == nil {
		t.Error("zero train fraction should fail")
	}
	opts.TrainFrac = 1
	if _, err := Build(sim, ChallengeSpecs[0], opts); err == nil {
		t.Error("train fraction 1 should fail")
	}
}

func TestStratifiedSplitAllClassesBothSides(t *testing.T) {
	sim := testSim(t, 0.1)
	ch, err := Build(sim, ChallengeSpecs[1], DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	trainClasses := map[int]bool{}
	testClasses := map[int]bool{}
	for _, y := range ch.Train.Y {
		trainClasses[y] = true
	}
	for _, y := range ch.Test.Y {
		testClasses[y] = true
	}
	if len(trainClasses) != int(telemetry.NumClasses) {
		t.Errorf("train covers %d classes", len(trainClasses))
	}
	if len(testClasses) != int(telemetry.NumClasses) {
		t.Errorf("test covers %d classes", len(testClasses))
	}
}

func TestSetSelect(t *testing.T) {
	sim := testSim(t, 0.02)
	ch, err := Build(sim, ChallengeSpecs[0], DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	sub := ch.Train.Select([]int{0, 2})
	if sub.Len() != 2 || sub.Y[0] != ch.Train.Y[0] || sub.Y[1] != ch.Train.Y[2] {
		t.Error("Select mismatch")
	}
	if sub.Models[1] != ch.Train.Models[2] {
		t.Error("Select models mismatch")
	}
}

func TestNumClasses(t *testing.T) {
	s := &Set{Y: []int{0, 3, 1}}
	if s.NumClasses() != 4 {
		t.Errorf("NumClasses = %d", s.NumClasses())
	}
}

func TestNpzRoundTrip(t *testing.T) {
	sim := testSim(t, 0.02)
	opts := DefaultBuildOptions()
	opts.MaxTrialsPerSet = 20
	ch, err := Build(sim, ChallengeSpecs[2], opts)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := ch.ToArchive()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ar.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ar2, err := npz.ReadArchive(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromArchive(ar2, ch.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Train.Len() != ch.Train.Len() || got.Test.Len() != ch.Test.Len() {
		t.Fatalf("sizes changed: %d/%d vs %d/%d", got.Train.Len(), got.Test.Len(), ch.Train.Len(), ch.Test.Len())
	}
	for i := range ch.Train.X.Data {
		if got.Train.X.Data[i] != ch.Train.X.Data[i] {
			t.Fatal("tensor changed through npz round trip")
		}
	}
	for i, y := range ch.Train.Y {
		if got.Train.Y[i] != y || got.Train.Models[i] != ch.Train.Models[i] {
			t.Fatal("labels changed through npz round trip")
		}
	}
}

func TestFromArchiveMissingMembers(t *testing.T) {
	ar := npz.NewArchive()
	if _, err := FromArchive(ar, ChallengeSpecs[0]); err == nil {
		t.Error("empty archive should fail")
	}
}

// TestDownsamplePreservesTrials property: downsampling never mixes data
// across trials or sensors.
func TestDownsamplePreservesTrials(t *testing.T) {
	f := func(seed int64) bool {
		n, tt, c := 3, 20, 4
		x := NewTensor3(n, tt, c)
		for i := range x.Data {
			x.Data[i] = float32(int64(i) + seed%100)
		}
		d := x.Downsample(4)
		for i := 0; i < n; i++ {
			for k := 0; k < d.T; k++ {
				for s := 0; s < c; s++ {
					if d.At(i, k, s) != x.At(i, k*4, s) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
