package drift

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/wire"
)

func testCalibration(t *testing.T) *Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	feats, held := mat.New(300, 9), mat.New(100, 9)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	for i := range held.Data {
		held.Data[i] = rng.NormFloat64()
	}
	samples := mat.New(600, 3)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()*4 + 10
	}
	c, err := Fit(FitInput{TrainFeatures: feats, HeldOutFeatures: held, RawSamples: samples},
		Options{Quantile: 0.9, Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCalibrationCodecRoundTrip(t *testing.T) {
	for _, withFeat := range []bool{true, false} {
		c := testCalibration(t)
		if !withFeat {
			c.Feat = nil
			c.Threshold.MaxFeatDist = 0
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Threshold != c.Threshold {
			t.Fatalf("threshold drifted: %+v vs %+v", got.Threshold, c.Threshold)
		}
		if !reflect.DeepEqual(got.Feat, c.Feat) {
			t.Fatal("feature stats drifted through the codec")
		}
		if !reflect.DeepEqual(got.Ref, c.Ref) {
			t.Fatal("reference drifted through the codec")
		}
	}
}

// TestDecodeRefusesNonFiniteFeatureStats: a calibration whose feature
// gate cannot measure a distance, or cannot compare one, is corrupt, however
// cleanly it parses. A zero, negative or non-finite std, or any non-finite
// mean or reference value, makes every distance NaN or +Inf; a NaN,
// infinite or negative cut point switches the gate off. Either way the gate
// accepts everything.
func TestDecodeRefusesNonFiniteFeatureStats(t *testing.T) {
	for name, corrupt := range map[string]func(c *Calibration){
		"zero std":               func(c *Calibration) { c.Feat.Stds[2] = 0 },
		"negative std":           func(c *Calibration) { c.Feat.Stds[2] = -1 },
		"NaN std":                func(c *Calibration) { c.Feat.Stds[2] = math.NaN() },
		"infinite std":           func(c *Calibration) { c.Feat.Stds[2] = math.Inf(1) },
		"NaN mean":               func(c *Calibration) { c.Feat.Means[0] = math.NaN() },
		"infinite mean":          func(c *Calibration) { c.Feat.Means[0] = math.Inf(-1) },
		"NaN reference":          func(c *Calibration) { c.Feat.Train.Data[11] = math.NaN() },
		"inf reference":          func(c *Calibration) { c.Feat.Train.Data[11] = math.Inf(1) },
		"NaN cut point":          func(c *Calibration) { c.Threshold.MaxFeatDist = math.NaN() },
		"infinite cut point":     func(c *Calibration) { c.Threshold.MaxFeatDist = math.Inf(1) },
		"-infinite cut point":    func(c *Calibration) { c.Threshold.MaxFeatDist = math.Inf(-1) },
		"negative cut point":     func(c *Calibration) { c.Threshold.MaxFeatDist = -1 },
		"gateless NaN cut point": func(c *Calibration) { c.Feat, c.Threshold.MaxFeatDist = nil, math.NaN() },
	} {
		c := testCalibration(t)
		corrupt(c)
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("calibration with a %s decoded", name)
		}
	}
}

// TestDecodeRefusesUnscorableReference: a reference histogram PSI cannot
// score is corrupt, however cleanly it parses. A NaN proportion makes its
// sensor's PSI NaN, which the fleet score's max skips, so that sensor's
// drift goes unseen; a +Inf one pins the fleet score at +Inf; negative mass
// and NaN, infinite or descending edges are no histogram at all. Equal
// edges, which equal-mass edges are on a constant sensor, still decode.
func TestDecodeRefusesUnscorableReference(t *testing.T) {
	for name, corrupt := range map[string]func(r *Reference){
		"NaN proportion":      func(r *Reference) { r.Props[1][3] = math.NaN() },
		"+Inf proportion":     func(r *Reference) { r.Props[1][3] = math.Inf(1) },
		"negative proportion": func(r *Reference) { r.Props[1][3] = -0.125 },
		"NaN edge":            func(r *Reference) { r.Edges[2][4] = math.NaN() },
		"NaN first edge":      func(r *Reference) { r.Edges[2][0] = math.NaN() },
		"infinite edge":       func(r *Reference) { r.Edges[2][6] = math.Inf(1) },
		"-infinite edge":      func(r *Reference) { r.Edges[2][0] = math.Inf(-1) },
		"descending edges":    func(r *Reference) { r.Edges[0][2], r.Edges[0][3] = r.Edges[0][3], r.Edges[0][2] },
	} {
		t.Run(name, func(t *testing.T) {
			c := testCalibration(t)
			corrupt(c.Ref)
			var buf bytes.Buffer
			if err := c.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
				t.Errorf("calibration with a %s decoded", name)
			}
		})
	}

	c := testCalibration(t)
	for b := range c.Ref.Edges[1] {
		c.Ref.Edges[1][b] = 4
	}
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("a constant sensor's repeated edges were refused: %v", err)
	}
	if !reflect.DeepEqual(got.Ref, c.Ref) {
		t.Fatal("reference with repeated edges drifted through the codec")
	}
}

// TestEncodeFillsLegacySlots: the slot before Quantile once held the energy
// temperature, and the three after it the probability cut points. A section
// written now fills the first with 0.5, the temperature every calibration was
// fitted with, so its bytes match an older build's, and the others with 0, 0
// and +Inf, which no score can fall past, so a reader that still applies them
// reaches the verdicts the feature gate alone reaches.
func TestEncodeFillsLegacySlots(t *testing.T) {
	var buf bytes.Buffer
	if err := testCalibration(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rr := wire.NewReader(&buf)
	rr.U32()
	temp := rr.F64()
	rr.F64()
	conf, margin, energy := rr.F64(), rr.F64(), rr.F64()
	if err := rr.Err(); err != nil {
		t.Fatal(err)
	}
	if temp != 0.5 {
		t.Fatalf("temperature slot holds %v; want 0.5", temp)
	}
	if conf != 0 || margin != 0 || !math.IsInf(energy, 1) {
		t.Fatalf("legacy slots hold %v, %v, %v; want 0, 0, +Inf", conf, margin, energy)
	}
}

// TestDecodeLegacySection reads a section written when the verdict still
// ORed confidence, margin and energy cut points into the feature gate
// (testdata/legacy_v1.drift: quantile 0.9 for those rules, the gate at
// 0.95). Its Quantile slot belongs to the retired rules, so it decodes as 0;
// the gate's cut point keeps its bits; and the verdict is the gate's alone,
// even on a flat probability row every retired rule would have rejected.
func TestDecodeLegacySection(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_v1.drift")
	if err != nil {
		t.Fatal(err)
	}
	rr := wire.NewReader(bytes.NewReader(raw))
	rr.U32()
	rr.F64()
	storedQ := rr.F64()
	rr.F64()
	rr.F64()
	rr.F64()
	storedDist := rr.F64()
	if err := rr.Err(); err != nil {
		t.Fatal(err)
	}
	if storedQ != 0.9 || !(storedDist > 0) {
		t.Fatalf("fixture holds quantile %v and cut point %v; want 0.9 and a positive distance", storedQ, storedDist)
	}

	c, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if c.Threshold.Quantile != 0 {
		t.Errorf("legacy section decoded with quantile %v, want 0", c.Threshold.Quantile)
	}
	if math.Float64bits(c.Threshold.MaxFeatDist) != math.Float64bits(storedDist) {
		t.Errorf("cut point decoded as %v, stored %v", c.Threshold.MaxFeatDist, storedDist)
	}
	flat := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	rng := rand.New(rand.NewSource(3))
	var accepted, rejected int
	for i := 0; i < 200; i++ {
		s := c.Score(flat, []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2})
		got := c.Threshold.Reject(s)
		if want := s.FeatDist > storedDist; got != want {
			t.Fatalf("probe %d at distance %v: rejected %t, want %t", i, s.FeatDist, got, want)
		}
		if got {
			rejected++
		} else {
			accepted++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("probes fell on one side of the cut point: %d accepted, %d rejected", accepted, rejected)
	}
}

func TestDecodeHostileBytes(t *testing.T) {
	c := testCalibration(t)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation at every byte must error, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := Decode(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", n)
		}
	}
	// A wrong version is refused.
	bad := append([]byte(nil), full...)
	bad[0] = 99
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("future codec version accepted")
	}
	// Absurd sensor counts are refused before allocation. A feat-less
	// encoding has a fixed prelude: u32 version, six F64 threshold slots,
	// one presence byte — the sensors u32 starts at byte 53.
	noFeat := testCalibration(t)
	noFeat.Feat = nil
	var nf bytes.Buffer
	if err := noFeat.Encode(&nf); err != nil {
		t.Fatal(err)
	}
	bad = append([]byte(nil), nf.Bytes()...)
	bad[53] = 0xff
	bad[54] = 0xff
	bad[55] = 0xff
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("absurd sensor count accepted")
	}
	if err := (*Calibration)(nil).Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("nil calibration encoded")
	}
}
