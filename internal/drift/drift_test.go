package drift

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestScoreProbsConfidentVsUniform(t *testing.T) {
	confident := []float64{0.9, 0.05, 0.03, 0.02}
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	sc := ScoreProbs(confident, 0)
	su := ScoreProbs(uniform, 0)
	if sc.Conf != 0.9 || su.Conf != 0.25 {
		t.Fatalf("conf: got %v and %v", sc.Conf, su.Conf)
	}
	if got := sc.Margin; math.Abs(got-0.85) > 1e-12 {
		t.Fatalf("margin: got %v, want 0.85", got)
	}
	if su.Margin != 0 {
		t.Fatalf("uniform margin: got %v, want 0", su.Margin)
	}
	if sc.Energy >= su.Energy {
		t.Fatalf("energy should rise toward uniform: confident %v, uniform %v", sc.Energy, su.Energy)
	}
	// Uniform over K classes has the maximal energy T·log(K).
	wantMax := DefaultTemperature * math.Log(4)
	if math.Abs(su.Energy-wantMax) > 1e-9 {
		t.Fatalf("uniform energy %v, want %v", su.Energy, wantMax)
	}
}

func TestScoreProbsZeroProbabilitiesFinite(t *testing.T) {
	s := ScoreProbs([]float64{1, 0, 0, 0}, 0)
	if math.IsNaN(s.Energy) || math.IsInf(s.Energy, 0) {
		t.Fatalf("energy not finite on exact-zero probs: %v", s.Energy)
	}
	if s.Conf != 1 || s.Margin != 1 {
		t.Fatalf("got conf %v margin %v", s.Conf, s.Margin)
	}
}

// idProbs builds confident in-distribution-looking probability rows.
func idProbs(rng *rand.Rand, rows, classes int) *mat.Matrix {
	probs := mat.New(rows, classes)
	for i := 0; i < rows; i++ {
		row := probs.Row(i)
		win := rng.Intn(classes)
		p := 0.6 + 0.35*rng.Float64()
		row[win] = p
		rest := 1 - p
		for c := range row {
			if c != win {
				row[c] = rest / float64(classes-1)
			}
		}
	}
	return probs
}

func TestFitThresholdCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probs := idProbs(rng, 2000, 26)
	thr, err := FitThreshold(probs, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if thr.Temperature != DefaultTemperature || thr.Quantile != 0.99 {
		t.Fatalf("defaults not recorded: %+v", thr)
	}
	// In-distribution false rejections stay near the calibrated tails:
	// three rules at 1% each bound the union at 3%.
	rejected := 0
	for i := 0; i < probs.Rows; i++ {
		if thr.Reject(ScoreProbs(probs.Row(i), thr.Temperature)) {
			rejected++
		}
	}
	if frac := float64(rejected) / float64(probs.Rows); frac > 0.03 {
		t.Fatalf("in-distribution rejection %v exceeds calibrated bound", frac)
	}
	// A near-uniform row must be rejected.
	flat := make([]float64, 26)
	for i := range flat {
		flat[i] = 1.0 / 26
	}
	if !thr.Reject(ScoreProbs(flat, thr.Temperature)) {
		t.Fatal("uniform probabilities not rejected")
	}
}

func TestFeatureGateCatchesConfidentOOD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// In-distribution features: standard normal. Probabilities: confident.
	feats := mat.New(2000, 10)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	held := mat.New(500, 10)
	for i := range held.Data {
		held.Data[i] = rng.NormFloat64()
	}
	probs := idProbs(rng, 500, 26)
	samples := mat.New(500, 2)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	cal, err := Fit(FitInput{Probs: probs, TrainFeatures: feats, HeldOutFeatures: held, RawSamples: samples},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cal.Feat == nil || cal.Threshold.MaxFeatDist <= 0 {
		t.Fatalf("feature gate not fitted: %+v", cal.Threshold)
	}
	// A *confident* prediction on a feature row far outside the training
	// support must still be rejected — the scenario probability scores
	// alone cannot catch (ensembles vote confidently on far-OOD points).
	confident := make([]float64, 26)
	confident[3] = 1
	ood := make([]float64, 10)
	for j := range ood {
		ood[j] = 50
	}
	s := cal.Score(confident, ood)
	if s.FeatDist < 10 {
		t.Fatalf("OOD feature distance %v implausibly small", s.FeatDist)
	}
	if !cal.Threshold.Reject(s) {
		t.Fatal("confident far-OOD prediction not rejected by the feature gate")
	}
	// The same confident prediction on an in-distribution row passes.
	id := make([]float64, 10)
	if cal.Threshold.Reject(cal.Score(confident, id)) {
		t.Fatal("confident in-distribution prediction rejected")
	}
}

func TestFitThresholdRejectsBadInput(t *testing.T) {
	if _, err := FitThreshold(nil, 0, 0); err == nil {
		t.Fatal("nil probs accepted")
	}
	if _, err := FitThreshold(mat.New(3, 4), 1.5, 0); err == nil {
		t.Fatal("quantile 1.5 accepted")
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
	in := FitInput{Probs: idProbs(rng, 40, 4), TrainFeatures: feats, HeldOutFeatures: feats.Clone(), RawSamples: mat.New(4, 1)}
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
