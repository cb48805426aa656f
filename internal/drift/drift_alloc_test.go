package drift

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestDistanceZeroAlloc pins the //wcc:hotpath contract on the
// feature-space gate: scoring one embedding row of the served width against
// the stored training rows allocates nothing. The call runs once per
// prediction, on every goroutine of the tick's scoring pass at once. A wider
// row than the stack buffer holds still scores, and to the same value.
func TestDistanceZeroAlloc(t *testing.T) {
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
}
