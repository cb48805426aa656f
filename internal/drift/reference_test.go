package drift

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/mat"
)

// refFitReference is FitReference as it was before it selected its edges:
// each sensor's column sorted in full, the edges read with quantileOf and
// the proportions counted over the sorted column.
func refFitReference(samples *mat.Matrix, bins int) *Reference {
	r := &Reference{Bins: bins, Edges: make([][]float64, samples.Cols), Props: make([][]float64, samples.Cols)}
	for c := 0; c < samples.Cols; c++ {
		col := make([]float64, samples.Rows)
		for i := range col {
			col[i] = samples.At(i, c)
		}
		sort.Float64s(col)
		edges := make([]float64, bins-1)
		for k := 1; k < bins; k++ {
			edges[k-1] = quantileOf(col, float64(k)/float64(bins))
		}
		props := make([]float64, bins)
		for _, v := range col {
			props[binOf(edges, v)]++
		}
		inv := 1.0 / float64(len(col))
		for b := range props {
			props[b] *= inv
		}
		r.Edges[c], r.Props[c] = edges, props
	}
	return r
}

// TestFitReferenceMatchesSortedQuantiles holds the selected edges and the
// proportions to the sort-based fit bit for bit: integer telemetry with
// long runs of ties, an all-equal sensor, continuous values, and fewer
// samples than bins.
func TestFitReferenceMatchesSortedQuantiles(t *testing.T) {
	cases := []struct {
		rows, bins int
	}{{3, 16}, {15, 16}, {16, 16}, {17, 16}, {1000, 16}, {20_000, 16}, {4_001, 7}}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.rows*31 + tc.bins)))
		samples := mat.New(tc.rows, 4)
		for i := 0; i < tc.rows; i++ {
			samples.Set(i, 0, float64(rng.Intn(6)*25)) // utilisation-like integers
			samples.Set(i, 1, 41)                      // a sensor that never moves
			samples.Set(i, 2, rng.NormFloat64()*3+20)  // continuous
			samples.Set(i, 3, math.Floor(rng.ExpFloat64()*4))
		}
		name := fmt.Sprintf("rows=%d/bins=%d", tc.rows, tc.bins)
		got, err := FitReference(samples, tc.bins)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refFitReference(samples, tc.bins)
		for c := range want.Edges {
			for k := range want.Edges[c] {
				if math.Float64bits(got.Edges[c][k]) != math.Float64bits(want.Edges[c][k]) {
					t.Errorf("%s sensor %d edge %d: %v, want %v", name, c, k, got.Edges[c][k], want.Edges[c][k])
				}
			}
			for b := range want.Props[c] {
				if math.Float64bits(got.Props[c][b]) != math.Float64bits(want.Props[c][b]) {
					t.Errorf("%s sensor %d bin %d: %v, want %v", name, c, b, got.Props[c][b], want.Props[c][b])
				}
			}
		}
	}
}

// TestSelectRanksPlacesOrderStatistics checks selectRanks against a full
// sort at every requested position, including repeated positions, the two
// ends, and a zero partition budget (the sort fallback).
func TestSelectRanksPlacesOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		a := make([]float64, n)
		spread := 1 + rng.Intn(n)
		for i := range a {
			a[i] = float64(rng.Intn(spread))
		}
		want := slices.Clone(a)
		slices.Sort(want)
		ps := make([]int, rng.Intn(20))
		for i := range ps {
			ps[i] = rng.Intn(n)
		}
		ps = append(ps, 0, n-1)
		slices.Sort(ps)
		budget := 2 * 12
		if trial%10 == 0 {
			budget = 0
		}
		selectRanks(a, 0, n, ps, budget)
		for _, p := range ps {
			if a[p] != want[p] {
				t.Fatalf("trial %d: a[%d] = %v, want %v", trial, p, a[p], want[p])
			}
		}
		slices.Sort(a)
		if !slices.Equal(a, want) {
			t.Fatalf("trial %d: selectRanks lost or invented values", trial)
		}
	}
}
