package drift

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mat"
)

func testCalibration(t *testing.T) *Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	probs := idProbs(rng, 300, 5)
	feats := mat.New(300, 9)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	samples := mat.New(600, 3)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()*4 + 10
	}
	c, err := Fit(FitInput{Probs: probs, TrainFeatures: feats, HeldOutFeatures: feats, RawSamples: samples},
		Options{Quantile: 0.95, Temperature: 0.7, Bins: 8})
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
// statistics cannot measure a distance is corrupt, however cleanly it
// parses. A zero, negative or non-finite std, or any non-finite mean or
// reference value, makes every distance NaN or +Inf and the gate accept
// everything.
func TestDecodeRefusesNonFiniteFeatureStats(t *testing.T) {
	for name, corrupt := range map[string]func(fs *FeatureStats){
		"zero std":      func(fs *FeatureStats) { fs.Stds[2] = 0 },
		"negative std":  func(fs *FeatureStats) { fs.Stds[2] = -1 },
		"NaN std":       func(fs *FeatureStats) { fs.Stds[2] = math.NaN() },
		"infinite std":  func(fs *FeatureStats) { fs.Stds[2] = math.Inf(1) },
		"NaN mean":      func(fs *FeatureStats) { fs.Means[0] = math.NaN() },
		"infinite mean": func(fs *FeatureStats) { fs.Means[0] = math.Inf(-1) },
		"NaN reference": func(fs *FeatureStats) { fs.Train.Data[11] = math.NaN() },
		"inf reference": func(fs *FeatureStats) { fs.Train.Data[11] = math.Inf(1) },
	} {
		c := testCalibration(t)
		corrupt(c.Feat)
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("calibration with a %s decoded", name)
		}
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
	// encoding has a fixed prelude: u32 version, six F64 thresholds, one
	// presence byte — the sensors u32 starts at byte 53.
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
