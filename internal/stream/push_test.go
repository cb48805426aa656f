package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
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

// onEachPath runs fn as one subtest per kernel path with Push forced onto
// it. A path the CPU cannot run is skipped, and the skip says why.
func onEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
		t.Run(path, func(t *testing.T) {
			prev, ok := mat.SetKernelPath(path)
			if !ok {
				t.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s push is not run", path)
			}
			defer mat.SetKernelPath(prev)
			fn(t)
		})
	}
}

// requireTwoPassBits fails unless got holds want's head, count, sums and
// ring, the floats compared in math.Float64bits.
func requireTwoPassBits(t *testing.T, what string, got, want *WindowedEmbedder) {
	t.Helper()
	if got.head != want.head || got.count != want.count {
		t.Fatalf("%s: head %d count %d, want %d and %d", what, got.head, got.count, want.head, want.count)
	}
	for k := range want.sums {
		if math.Float64bits(got.sums[k]) != math.Float64bits(want.sums[k]) {
			t.Fatalf("%s: sum %d is %v (%#x), two passes give %v (%#x)",
				what, k, got.sums[k], math.Float64bits(got.sums[k]), want.sums[k], math.Float64bits(want.sums[k]))
		}
	}
	for i := range want.ring {
		if math.Float64bits(got.ring[i]) != math.Float64bits(want.ring[i]) {
			t.Fatalf("%s: ring %d is %v (%#x), want %v (%#x)",
				what, i, got.ring[i], math.Float64bits(got.ring[i]), want.ring[i], math.Float64bits(want.ring[i]))
		}
	}
}

// TestEquivalenceOnePassPushMatchesTwoPass holds the one-pass Push, on each
// kernel path, to the two-pass reference in math.Float64bits after every
// push — sums, ring, head and count — over several wraps of windows from 2
// to 17 samples and every sensor count from 1 to 9 plus MaxSensors (the
// AVX-512 push takes up to 8), with raw values from 1e-3 to 1e9 around
// offsets that make the eviction cancel, against a scaler whose stds span
// six orders of magnitude.
func TestEquivalenceOnePassPushMatchesTwoPass(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		for _, window := range []int{2, 5, 17} {
			for _, sensors := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, MaxSensors} {
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
						requireTwoPassBits(t, fmt.Sprintf("%s push %d", name, step), got, want)
					}
				}
			}
		}
	})
}

// FuzzPush holds Push on both kernel paths to twoPassPush in
// math.Float64bits after every push, over several wraps of a fuzzed window
// (2 to 17 samples) and sensor count (1 to 9, so the AVX-512 push's widest
// shape and the first one past it both run). Each sample value is one of
// four fuzzed values, picked by the bits of pick; the scaler's means are
// the fuzzed mean, some moved by a seeded normal, and its stds the fuzzed
// std scaled by up to two decades either way. The seeds reach −0,
// subnormals, ±Inf and products that overflow. NaN is not an input Push
// takes (fleet.CheckSample refuses it first), so a NaN value returns; so
// does a scaler StandardScaler.Check refuses. On a CPU without AVX-512F/VL
// only the Go loop is held to the reference.
func FuzzPush(f *testing.F) {
	inf, sub := math.Inf(1), 5e-324
	f.Add(uint8(0), uint8(6), 0.5, -1.25, 3.0, 7.0, 0.0, 1.0, uint64(0x1b1b1b1b), int64(1))
	f.Add(uint8(3), uint8(7), math.Copysign(0, -1), 0.0, sub, -sub, 0.0, 1.0, uint64(0xe4e4e4e4e4), int64(2))
	f.Add(uint8(1), uint8(8), inf, -inf, 1.0, -1.0, 0.0, 1.0, uint64(0x0123456789abcdef), int64(3))
	f.Add(uint8(15), uint8(4), 1e200, -1e200, 1e154, 3e-300, 1e3, 1e-3, uint64(0xfedcba9876543210), int64(4))
	f.Add(uint8(7), uint8(2), 2.0, 2.0, 2.0, 2.0, 2.0, sub, uint64(0), int64(5))
	f.Fuzz(func(t *testing.T, win, sens uint8, v0, v1, v2, v3, mean, std float64, pick uint64, seed int64) {
		vals := [4]float64{v0, v1, v2, v3}
		for _, v := range vals {
			if math.IsNaN(v) {
				return
			}
		}
		window, sensors := int(win%16)+2, int(sens%9)+1
		rng := rand.New(rand.NewSource(seed))
		scaler := &preprocess.StandardScaler{
			Means: make([]float64, window*sensors),
			Stds:  make([]float64, window*sensors),
		}
		for i := range scaler.Means {
			scaler.Means[i] = mean
			if rng.Intn(2) == 0 {
				scaler.Means[i] += rng.NormFloat64()
			}
			scaler.Stds[i] = std * math.Pow(10, rng.Float64()*4-2)
		}
		shape, err := CheckShape(window, sensors, scaler)
		if err != nil {
			return
		}
		want := shape.NewEmbedder()
		paths := []string{mat.ScalarPath, mat.AVX512Path}
		got := []*WindowedEmbedder{shape.NewEmbedder(), shape.NewEmbedder()}
		defer mat.SetKernelPath(mat.KernelPath())
		sample := make([]float64, sensors)
		for step := 0; step < 3*window+2; step++ {
			for c := range sample {
				sample[c] = vals[pick>>((step*sensors+c)%32*2)&3]
			}
			twoPassPush(want, sample)
			for i, path := range paths {
				if _, ok := mat.SetKernelPath(path); !ok {
					continue // no AVX-512 on this host
				}
				if err := got[i].Push(sample); err != nil {
					t.Fatal(err)
				}
				requireTwoPassBits(t, fmt.Sprintf("%s path, %dx%d, push %d", path, window, sensors, step), got[i], want)
			}
		}
	})
}

// BenchmarkPush is the rung of stream.push_ns_per_sample: one Push into a
// served-shape embedder (540×7) on each kernel path. full spreads the
// pushes over 64 filled embedders in runs of 16 samples, the way a
// backfill batch lands; fill pushes into embedders that have not wrapped,
// refilling each from empty once its window is full (the reset is not
// timed).
func BenchmarkPush(b *testing.B) {
	const (
		window, sensors = 540, 7
		jobs, run       = 64, 16
	)
	rng := rand.New(rand.NewSource(1))
	scaler := &preprocess.StandardScaler{
		Means: make([]float64, window*sensors),
		Stds:  make([]float64, window*sensors),
	}
	for i := range scaler.Means {
		scaler.Means[i] = rng.NormFloat64()*3 + 5
		scaler.Stds[i] = 1 + rng.Float64()*2
	}
	shape, err := CheckShape(window, sensors, scaler)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([][]float64, 4096)
	for i := range samples {
		samples[i] = make([]float64, sensors)
		for c := range samples[i] {
			samples[i][c] = rng.NormFloat64()*3 + 5
		}
	}
	embs := make([]*WindowedEmbedder, jobs)
	for j := range embs {
		embs[j] = shape.NewEmbedder()
	}
	eachPath := func(b *testing.B, fn func(b *testing.B)) {
		for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
			b.Run("path="+path, func(b *testing.B) {
				prev, ok := mat.SetKernelPath(path)
				if !ok {
					b.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s push is not run", path)
				}
				defer mat.SetKernelPath(prev)
				fn(b)
			})
		}
	}
	b.Run("full", func(b *testing.B) {
		eachPath(b, func(b *testing.B) {
			for _, e := range embs {
				for i := 0; !e.Ready(); i++ {
					if err := e.Push(samples[i%len(samples)]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := embs[i/run%jobs].Push(samples[i%len(samples)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("fill", func(b *testing.B) {
		eachPath(b, func(b *testing.B) {
			e := shape.NewEmbedder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Push(samples[i%len(samples)]); err != nil {
					b.Fatal(err)
				}
				if e.Ready() {
					b.StopTimer()
					e = shape.NewEmbedder()
					b.StartTimer()
				}
			}
		})
	})
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
