package stream

import (
	"testing"

	"repro/internal/preprocess"
)

// TestPushAndFeaturesIntoZeroAlloc pins the //wcc:hotpath contract on the
// per-sample embedding path: pushing a sample into a full ring and
// extracting the covariance embedding into a caller-provided slice
// allocate nothing. This is the per-sample, per-tick inner loop of the
// whole fleet — one allocation here multiplies by every sample served.
// It runs on each kernel path.
func TestPushAndFeaturesIntoZeroAlloc(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		const window, sensors = 16, 4
		scaler := &preprocess.StandardScaler{
			Means: make([]float64, window*sensors),
			Stds:  make([]float64, window*sensors),
		}
		for i := range scaler.Stds {
			scaler.Stds[i] = 1
		}
		w, err := NewWindowedEmbedder(window, sensors, scaler)
		if err != nil {
			t.Fatal(err)
		}
		sample := []float64{0.5, -1.25, 3, 0.0625}
		for i := 0; i < window; i++ { // fill the ring so FeaturesInto succeeds
			if err := w.Push(sample); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]float64, w.FeatureDim())

		bad := false
		allocs := testing.AllocsPerRun(200, func() {
			if err := w.Push(sample); err != nil {
				bad = true
			}
			if err := w.FeaturesInto(dst); err != nil {
				bad = true
			}
		})
		if bad {
			t.Fatal("Push/FeaturesInto failed during measurement")
		}
		if allocs != 0 {
			t.Fatalf("Push+FeaturesInto allocate %.1f times per sample, want 0", allocs)
		}
	})
}
