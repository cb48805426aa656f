package drift

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestDistanceZeroAlloc pins the //wcc:hotpath contract on the
// feature-space gate: scoring one embedding row of the served width against
// the stored training rows allocates nothing, cold or through a
// certificate that is reused and renewed, once the certificate has held a
// proof. The call runs once per prediction, on every goroutine of the
// tick's scoring pass at once. A wider row than the stack buffer holds still
// scores, and to the same value. It runs on both kernel paths.
func TestDistanceZeroAlloc(t *testing.T) {
	onEachPath(t, checkDistanceZeroAlloc)
}

func checkDistanceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.New(64, stackFeatures)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	fs, err := FitFeatureStats(x)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, stackFeatures)
	for j := range row {
		row[j] = rng.NormFloat64()
	}

	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sink += fs.Distance(row)
	})
	if allocs != 0 {
		t.Fatalf("Distance allocates %.1f times per row, want 0", allocs)
	}
	// The row takes small steps, as a job's window does between ticks, so
	// the certificate is both reused (a hit leaves it as it was) and renewed
	// (a miss walks and rewrites the proof in place).
	var c Cert
	hits, misses := 0, 0
	allocs = testing.AllocsPerRun(200, func() {
		for j := range row {
			row[j] += rng.NormFloat64() * 1e-3
		}
		rho := c.rho
		sink += fs.DistanceCert(row, &c)
		if c.rho == rho {
			hits++
		} else {
			misses++
		}
	})
	if allocs != 0 || c.Nearest() < 0 {
		t.Fatalf("DistanceCert allocates %.1f times per row (winner %d), want 0", allocs, c.Nearest())
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits and %d misses; the gate must take both paths", hits, misses)
	}
	if sink <= 0 {
		t.Fatalf("distances summed to %v, want positive", sink)
	}

	// One feature past the stack buffer: a constant extra column standardises
	// to 0 on both sides, so the distance must not change.
	wide := mat.New(x.Rows, stackFeatures+1)
	for i := 0; i < x.Rows; i++ {
		copy(wide.Row(i), x.Row(i))
	}
	wfs, err := FitFeatureStats(wide)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wfs.Distance(append(row, 0)), fs.Distance(row); got != want {
		t.Fatalf("row wider than the stack buffer scored %v, want %v", got, want)
	}
	if got, want := wfs.DistanceCert(append(row, 0), &Cert{}), fs.Distance(row); got != want {
		t.Fatalf("row wider than the stack buffer scored %v through a certificate, want %v", got, want)
	}
}

// TestWindowAddZeroAlloc pins the //wcc:hotpath contract on the drift half
// of every ingested sample: binning a sample into a window through the
// reference's bin table allocates nothing, whatever the values, NaN and
// infinities included.
func TestWindowAddZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := mat.New(2000, 7)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	ref, err := FitReference(samples, DefaultBins)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewBinTable(ref)
	w := NewWindow(ref.Sensors(), ref.Bins)
	sample := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -3, 1e300, 0.5}
	allocs := testing.AllocsPerRun(200, func() {
		w.Add(tab, sample)
		sample[0] += 0.01
	})
	if allocs != 0 {
		t.Fatalf("Window.Add allocates %.1f times per sample, want 0", allocs)
	}
	if w.Samples != 201 {
		t.Fatalf("window counted %d samples, want 201", w.Samples)
	}
}
