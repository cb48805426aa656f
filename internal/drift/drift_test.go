package drift

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestFeatureGateCatchesConfidentOOD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// In-distribution features: standard normal.
	feats := mat.New(2000, 10)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	held := mat.New(500, 10)
	for i := range held.Data {
		held.Data[i] = rng.NormFloat64()
	}
	samples := mat.New(500, 2)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	cal, err := Fit(FitInput{TrainFeatures: feats, HeldOutFeatures: held, RawSamples: samples}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cal.Feat == nil || cal.Threshold.MaxFeatDist <= 0 {
		t.Fatalf("feature gate not fitted: %+v", cal.Threshold)
	}
	// A feature row far outside the training support must be rejected, however
	// confidently the model votes on it — ensembles vote confidently on far-OOD
	// points, so no probability score could catch it.
	ood := make([]float64, 10)
	for j := range ood {
		ood[j] = 50
	}
	s, _ := cal.ScoreFrom(ood, -1)
	if s.FeatDist < 10 {
		t.Fatalf("OOD feature distance %v implausibly small", s.FeatDist)
	}
	if !cal.Threshold.Reject(s) {
		t.Fatal("confident far-OOD prediction not rejected by the feature gate")
	}
	// An in-distribution row passes.
	if s, _ := cal.ScoreFrom(make([]float64, 10), -1); cal.Threshold.Reject(s) {
		t.Fatal("in-distribution row rejected")
	}
}

func TestFitReferenceEqualMass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := mat.New(4000, 3)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	ref, err := FitReference(samples, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Sensors() != 3 || ref.Bins != 8 {
		t.Fatalf("shape %dx%d", ref.Sensors(), ref.Bins)
	}
	for c := 0; c < 3; c++ {
		if len(ref.Edges[c]) != 7 || len(ref.Props[c]) != 8 {
			t.Fatalf("sensor %d histogram shape", c)
		}
		total := 0.0
		for b, p := range ref.Props[c] {
			total += p
			if p < 0.05 || p > 0.25 {
				t.Fatalf("sensor %d bin %d mass %v far from equal-mass 0.125", c, b, p)
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("sensor %d proportions sum to %v", c, total)
		}
		for k := 1; k < len(ref.Edges[c]); k++ {
			if ref.Edges[c][k] < ref.Edges[c][k-1] {
				t.Fatalf("sensor %d edges not ascending", c)
			}
		}
	}
}

func TestBinOfOutOfRangeAndNaN(t *testing.T) {
	edges := []float64{1, 2, 3}
	cases := []struct {
		v    float64
		want int
	}{{-100, 0}, {0.5, 0}, {1, 1}, {1.5, 1}, {2.5, 2}, {100, 3}, {math.NaN(), 3}}
	for _, c := range cases {
		if got := binOf(edges, c.v); got != c.want {
			t.Fatalf("binOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPSISameDistributionNearZeroShiftedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	samples := mat.New(8000, 2)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	ref, err := FitReference(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := NewWindow(2, ref.Bins)
	shifted := NewWindow(2, ref.Bins)
	for i := 0; i < 8000; i++ {
		same.Add(ref, []float64{rng.NormFloat64(), rng.NormFloat64()})
		// Sensor 0 drifts by +2σ, sensor 1 stays put.
		shifted.Add(ref, []float64{rng.NormFloat64() + 2, rng.NormFloat64()})
	}
	psiSame := ref.PSI(same)
	if FleetScore(psiSame) > 0.05 {
		t.Fatalf("same-distribution PSI %v should be near zero", psiSame)
	}
	psiShift := ref.PSI(shifted)
	if psiShift[0] < 0.25 {
		t.Fatalf("shifted sensor PSI %v should flag major drift", psiShift[0])
	}
	if psiShift[1] > 0.05 {
		t.Fatalf("stable sensor PSI %v should stay near zero", psiShift[1])
	}
	if FleetScore(psiShift) != psiShift[0] {
		t.Fatalf("fleet score %v should be the max sensor PSI %v", FleetScore(psiShift), psiShift[0])
	}
}

func TestWindowMergeEqualsCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	samples := mat.New(1000, 2)
	for i := range samples.Data {
		samples.Data[i] = rng.Float64() * 10
	}
	ref, err := FitReference(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewWindow(2, 4)
	a, b := NewWindow(2, 4), NewWindow(2, 4)
	for i := 0; i < 500; i++ {
		s := []float64{rng.Float64() * 12, rng.Float64() * 12}
		whole.Add(ref, s)
		if i%2 == 0 {
			a.Add(ref, s)
		} else {
			b.Add(ref, s)
		}
	}
	merged := a.Clone()
	merged.Merge(b)
	if merged.Samples != whole.Samples {
		t.Fatalf("merged %d samples, whole %d", merged.Samples, whole.Samples)
	}
	for i := range whole.Counts {
		if merged.Counts[i] != whole.Counts[i] {
			t.Fatalf("count %d: merged %d, whole %d", i, merged.Counts[i], whole.Counts[i])
		}
	}
}

func TestEmptyWindowPSIZero(t *testing.T) {
	samples := mat.New(10, 1)
	for i := range samples.Data {
		samples.Data[i] = float64(i)
	}
	ref, err := FitReference(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	psi := ref.PSI(NewWindow(1, 2))
	if psi[0] != 0 {
		t.Fatalf("empty window PSI %v, want 0", psi[0])
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	samples := mat.New(4, 1)
	samples.Data[2] = math.NaN()
	if _, err := FitReference(samples, 2); err == nil {
		t.Fatal("NaN training value accepted")
	}

	// One non-finite training feature used to fit: every distance came out
	// +Inf, MaxFeatDist was calibrated to +Inf, and the gate then accepted a
	// row any distance away.
	rng := rand.New(rand.NewSource(5))
	feats := mat.New(40, 3)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	in := FitInput{TrainFeatures: feats, HeldOutFeatures: feats.Clone(), RawSamples: mat.New(4, 1)}
	if _, err := Fit(in, Options{}); err != nil {
		t.Fatalf("finite features refused: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		feats.Data[7] = bad
		if _, err := FitFeatureStats(feats); err == nil {
			t.Fatalf("training feature %v accepted by FitFeatureStats", bad)
		}
		if cal, err := Fit(in, Options{}); err == nil {
			t.Fatalf("training feature %v accepted by Fit: MaxFeatDist %v", bad, cal.Threshold.MaxFeatDist)
		}
	}
}

func TestBand(t *testing.T) {
	cases := []struct {
		score float64
		want  string
	}{
		{0, BandStable}, {0.099, BandStable},
		{0.1, BandModerate}, {0.249, BandModerate},
		{0.25, BandMajor}, {3, BandMajor},
	}
	for _, c := range cases {
		if got := Band(c.score); got != c.want {
			t.Fatalf("Band(%v) = %q, want %q", c.score, got, c.want)
		}
	}
}
