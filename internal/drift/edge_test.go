package drift

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// The continual-learning flywheel calibrates candidates from whatever the
// reservoir happened to buffer, so the fitting paths must behave on the
// degenerate sets that pipeline can produce: empty held-out splits,
// single-sample calibration sets, and all-rejected traffic. The cut point
// must stay finite — a NaN threshold silently accepts everything.

// mustMat builds a small literal matrix.
func mustMat(rows, cols int, vals ...float64) *mat.Matrix {
	m, err := mat.FromSlice(rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestFitFeatureStatsDegenerateSets(t *testing.T) {
	if _, err := FitFeatureStats(nil); err == nil {
		t.Fatal("nil feature matrix accepted")
	}
	if _, err := FitFeatureStats(mat.New(0, 3)); err == nil {
		t.Fatal("empty feature matrix accepted")
	}
	// A single row has zero variance everywhere: the stds must clamp to 1,
	// not divide the standardisation by zero.
	fs, err := FitFeatureStats(mustMat(1, 3, 2, 4, 8))
	if err != nil {
		t.Fatalf("single feature row refused: %v", err)
	}
	for j, s := range fs.Stds {
		if s != 1 {
			t.Fatalf("constant feature %d fitted std %v, want the 1 clamp", j, s)
		}
	}
	if d := fs.Distance([]float64{2, 4, 8}); d != 0 {
		t.Fatalf("distance of the only training row to itself = %v", d)
	}
	if d := fs.Distance([]float64{3, 4, 8}); math.IsNaN(d) || d <= 0 {
		t.Fatalf("distance of a shifted row = %v, want finite positive", d)
	}
}

func TestFitSingleSampleCalibration(t *testing.T) {
	// One held-out row end to end: feature gate and reference fit without a
	// division by zero, and the resulting calibration accepts its own
	// calibration point.
	train := mustMat(1, 2, 1, 2)
	held := mustMat(1, 2, 1, 2)
	raw := mustMat(2, 3, 5, 5, 5, 6, 6, 6)
	cal, err := Fit(FitInput{TrainFeatures: train, HeldOutFeatures: held, RawSamples: raw}, Options{})
	if err != nil {
		t.Fatalf("single-sample calibration refused: %v", err)
	}
	if math.IsNaN(cal.Threshold.MaxFeatDist) {
		t.Fatal("MaxFeatDist is NaN")
	}
	if s := cal.ScoreCert(held.Row(0), &Cert{}); cal.Threshold.Reject(s) {
		t.Fatal("single-sample calibration rejects its own calibration row")
	}
}

// TestFitRefusesIncompleteInput: Fit refuses what it cannot calibrate a cut
// point from, rather than fitting a gate that is silently off.
func TestFitRefusesIncompleteInput(t *testing.T) {
	train := mustMat(1, 2, 1, 2)
	raw := mustMat(1, 3, 5, 5, 5)
	for name, tc := range map[string]struct {
		in   FitInput
		opts Options
	}{
		"training features without held-out ones": {FitInput{TrainFeatures: train, RawSamples: raw}, Options{}},
		"held-out features without training ones": {FitInput{HeldOutFeatures: train, RawSamples: raw}, Options{}},
		"no held-out rows":                        {FitInput{TrainFeatures: train, HeldOutFeatures: mat.New(0, 2), RawSamples: raw}, Options{}},
		"quantile 1":                              {FitInput{TrainFeatures: train, HeldOutFeatures: train, RawSamples: raw}, Options{Quantile: 1}},
		"quantile 1.5":                            {FitInput{RawSamples: raw}, Options{Quantile: 1.5}},
	} {
		if _, err := Fit(tc.in, tc.opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRejectionTallyZeroDenominators(t *testing.T) {
	// Fresh tally: both rates are defined as 0, the report is empty.
	var tally RejectionTally
	if r := tally.Recall(); r != 0 {
		t.Fatalf("empty tally recall %v", r)
	}
	if p := tally.Precision(); p != 0 {
		t.Fatalf("empty tally precision %v", p)
	}
	if s := tally.Report(); s != "" {
		t.Fatalf("empty tally report %q", s)
	}

	// All traffic rejected but nothing truly unknown: precision is a real
	// 0/N, recall's denominator is zero and must stay 0, not NaN.
	var allFlagged RejectionTally
	for i := 0; i < 10; i++ {
		allFlagged.Add(false, true)
	}
	if r := allFlagged.Recall(); r != 0 || math.IsNaN(r) {
		t.Fatalf("all-flagged recall %v", r)
	}
	if p := allFlagged.Precision(); p != 0 {
		t.Fatalf("all-flagged precision %v", p)
	}
	if s := allFlagged.Report(); s != "" {
		t.Fatalf("report with zero classified unknowns %q", s)
	}

	// All traffic truly unknown and all rejected: both rates are exactly 1.
	var perfect RejectionTally
	for i := 0; i < 10; i++ {
		perfect.Add(true, true)
	}
	if perfect.Recall() != 1 || perfect.Precision() != 1 {
		t.Fatalf("perfect tally recall %v precision %v", perfect.Recall(), perfect.Precision())
	}
	if perfect.Report() == "" {
		t.Fatal("perfect tally report empty")
	}
}
