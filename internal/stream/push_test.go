package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/preprocess"
)

// twoPassPush is Push as it was before the sums took one pass: a pass that
// subtracts the evicted sample's products, the new sample standardised into
// the ring, then a pass that adds its products. It is the reference
// TestEquivalenceOnePassPushMatchesTwoPass holds Push to.
func twoPassPush(w *WindowedEmbedder, sample []float64) {
	base := w.head * w.sensors
	if w.count >= w.window {
		old := w.ring[base : base+w.sensors]
		k := 0
		for a := 0; a < w.sensors; a++ {
			for b := a; b < w.sensors; b++ {
				w.sums[k] -= old[a] * old[b]
				k++
			}
		}
	}
	for c, v := range sample {
		col := base + c
		w.ring[col] = (v - w.scaler.Means[col]) / w.scaler.Stds[col]
	}
	cur := w.ring[base : base+w.sensors]
	k := 0
	for a := 0; a < w.sensors; a++ {
		for b := a; b < w.sensors; b++ {
			w.sums[k] += cur[a] * cur[b]
			k++
		}
	}
	w.head = (w.head + 1) % w.window
	if w.count < w.window {
		w.count++
	}
}

// TestEquivalenceOnePassPushMatchesTwoPass holds the one-pass Push to the
// two-pass reference in math.Float64bits after every push — sums, ring,
// head and count — over several wraps of windows from 2 to 17 samples and
// 1 to MaxSensors sensors, with raw values from 1e-3 to 1e9 around offsets
// that make the eviction cancel, against a scaler whose stds span six
// orders of magnitude.
func TestEquivalenceOnePassPushMatchesTwoPass(t *testing.T) {
	for _, window := range []int{2, 5, 17} {
		for _, sensors := range []int{1, 3, 7, MaxSensors} {
			for _, mag := range []float64{1e-3, 1, 1e3, 1e6, 1e9} {
				name := fmt.Sprintf("window=%d/sensors=%d/mag=%g", window, sensors, mag)
				rng := rand.New(rand.NewSource(int64(window*1000 + sensors)))
				scaler := &preprocess.StandardScaler{
					Means: make([]float64, window*sensors),
					Stds:  make([]float64, window*sensors),
				}
				for i := range scaler.Means {
					scaler.Means[i] = rng.NormFloat64() * mag
					scaler.Stds[i] = math.Pow(10, rng.Float64()*6-3)
				}
				got, err := NewWindowedEmbedder(window, sensors, scaler)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := NewWindowedEmbedder(window, sensors, scaler)
				sample := make([]float64, sensors)
				for step := 0; step < 4*window+3; step++ {
					for c := range sample {
						sample[c] = rng.NormFloat64()*mag + float64(c%3)*mag*10
					}
					if err := got.Push(sample); err != nil {
						t.Fatal(err)
					}
					twoPassPush(want, sample)
					if got.head != want.head || got.count != want.count {
						t.Fatalf("%s push %d: head %d count %d, want %d and %d",
							name, step, got.head, got.count, want.head, want.count)
					}
					for k := range want.sums {
						if math.Float64bits(got.sums[k]) != math.Float64bits(want.sums[k]) {
							t.Fatalf("%s push %d: sum %d is %v, two passes give %v",
								name, step, k, got.sums[k], want.sums[k])
						}
					}
					for i := range want.ring {
						if math.Float64bits(got.ring[i]) != math.Float64bits(want.ring[i]) {
							t.Fatalf("%s push %d: ring %d is %v, want %v", name, step, i, got.ring[i], want.ring[i])
						}
					}
				}
			}
		}
	}
}

// TestEmbedderRefusesPoisonedScaler: a scaler whose std is zero,
// negative, NaN or infinite, or whose mean is not finite, would put a NaN
// or an infinity into the running sums, where it never cancels out. The
// embedder refuses it and names the column; the same scaler with every
// column repaired is accepted.
func TestEmbedderRefusesPoisonedScaler(t *testing.T) {
	const window, sensors = 3, 2
	cases := []struct {
		col        int
		mean, std  float64
		wantInText string
	}{
		{1, 0, 0, "column 1 "},
		{2, 0, -2, "column 2 "},
		{3, 0, math.NaN(), "column 3 "},
		{4, 0, math.Inf(1), "column 4 "},
		{5, math.NaN(), 1, "column 5 "},
		{0, math.Inf(-1), 1, "column 0 "},
	}
	for _, tc := range cases {
		scaler := &preprocess.StandardScaler{
			Means: make([]float64, window*sensors),
			Stds:  make([]float64, window*sensors),
		}
		for i := range scaler.Stds {
			scaler.Stds[i] = 1
		}
		if _, err := NewWindowedEmbedder(window, sensors, scaler); err != nil {
			t.Fatalf("a well-formed scaler is refused: %v", err)
		}
		scaler.Means[tc.col], scaler.Stds[tc.col] = tc.mean, tc.std
		_, err := NewWindowedEmbedder(window, sensors, scaler)
		if err == nil || !strings.Contains(err.Error(), tc.wantInText) {
			t.Fatalf("mean %v std %v in column %d: error %v, want one naming %q",
				tc.mean, tc.std, tc.col, err, strings.TrimSpace(tc.wantInText))
		}
	}
}

// TestNewWindowedEmbedderRefusesWideShape: Push stages a sample on the
// stack, so a shape wider than MaxSensors is refused up front rather than
// panicking on the first sample.
func TestNewWindowedEmbedderRefusesWideShape(t *testing.T) {
	for _, sensors := range []int{MaxSensors, MaxSensors + 1} {
		scaler := &preprocess.StandardScaler{Means: make([]float64, 2*sensors), Stds: make([]float64, 2*sensors)}
		for i := range scaler.Stds {
			scaler.Stds[i] = 1
		}
		_, err := NewWindowedEmbedder(2, sensors, scaler)
		if (err == nil) != (sensors <= MaxSensors) {
			t.Fatalf("%d sensors: error %v", sensors, err)
		}
	}
}
