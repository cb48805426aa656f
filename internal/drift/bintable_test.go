package drift

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// binTableCases returns the edge sets the bin table is held to binOf on:
// fitted references (integer telemetry with long runs of ties, a sensor
// that never moves, continuous and skewed values), hand-made edge sets
// with repeats, all-equal edges, signed zeros, a span that overflows, a
// span too small to scale, a single edge, more edges than the table has
// cells for, and every sensor of two decoded
// references (the legacy fixture and a round trip of a reference fitted on
// simulated DCGM windows).
func binTableCases(t testing.TB) [][]float64 {
	t.Helper()
	var sets [][]float64
	rng := rand.New(rand.NewSource(5))
	samples := mat.New(3000, 4)
	for i := 0; i < samples.Rows; i++ {
		samples.Set(i, 0, float64(rng.Intn(6)*25))
		samples.Set(i, 1, 41)
		samples.Set(i, 2, rng.NormFloat64()*3+20)
		samples.Set(i, 3, math.Floor(rng.ExpFloat64()*4))
	}
	for _, bins := range []int{2, 7, 16} {
		ref, err := FitReference(samples, bins)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ref.Edges...)
	}
	sets = append(sets,
		[]float64{1, 1, 1, 2, 2, 3},
		[]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		[]float64{math.Copysign(0, -1), 0, 0, 1},
		[]float64{-1, math.Copysign(0, -1), 0},
		[]float64{-1.5e308, -1e308, 0, 1e308, 1.5e308},
		[]float64{-math.MaxFloat64, math.MaxFloat64},
		[]float64{1e308, 1.7e308, math.MaxFloat64},
		[]float64{-math.MaxFloat64, -1.7e308, -1e308},
		[]float64{1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)},
		[]float64{0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64},
		[]float64{-3},
		[]float64{0, 1e-300, 1e-10, 1, 1e10, 1e300},
	)
	// More edges than maxCells/cellsPerEdge: the cell count is capped.
	many := make([]float64, 500)
	for i := range many {
		many[i] = rng.NormFloat64()
	}
	slices.Sort(many)
	sets = append(sets, many)

	raw, err := os.ReadFile("testdata/legacy_v1.drift")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, legacy.Ref.Edges...)
	fitted, err := Fit(FitInput{RawSamples: simulatedSamples(t, 40, 60)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fitted.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Ref.Sensors() != int(telemetry.NumGPUSensors) {
		t.Fatalf("decoded reference covers %d sensors", decoded.Ref.Sensors())
	}
	return append(sets, decoded.Ref.Edges...)
}

// simulatedSamples returns up to n samples from each of the first jobs
// simulated jobs long enough to feed one, read from two minutes in (past
// start-up, as the serving benchmark's feed reads them), one job after
// another: raw 7-sensor DCGM telemetry in the order a job streams it.
func simulatedSamples(t testing.TB, jobs, n int) *mat.Matrix {
	t.Helper()
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var rows []float64
	used := 0
	for _, j := range sim.Jobs() {
		if used == jobs {
			break
		}
		if j.Duration < 120+float64(n)*telemetry.GPUSampleDT {
			continue
		}
		w, err := j.GPUWindow(0, 120, n)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, w.Data...)
		used++
	}
	return &mat.Matrix{Rows: len(rows) / int(telemetry.NumGPUSensors), Cols: int(telemetry.NumGPUSensors), Data: rows}
}

// binProbes returns the values every edge set is probed at: each edge and
// its Nextafter neighbours two steps either way, midpoints of neighbouring
// edges, the outer edges pushed out by their span, ±0, NaN, ±Inf, the
// largest and smallest magnitudes, and seeded values over and past the
// span.
func binProbes(edges []float64, rng *rand.Rand) []float64 {
	vs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for i, e := range edges {
		up, down := math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1))
		vs = append(vs, e, up, down, math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1)))
		if i > 0 {
			vs = append(vs, edges[i-1]/2+e/2)
		}
	}
	lo, hi := edges[0], edges[len(edges)-1]
	span := hi - lo
	vs = append(vs, lo-span, hi+span, lo-1, hi+1)
	for range 200 {
		vs = append(vs, lo+(rng.Float64()*3-1)*span, lo/2+hi/2+rng.NormFloat64()*span)
	}
	return vs
}

// checkBinTable holds one sensor's table to binOf at every probe.
func checkBinTable(t *testing.T, name string, edges, probes []float64) {
	t.Helper()
	ref := &Reference{Bins: len(edges) + 1, Edges: [][]float64{edges}}
	tab := NewBinTable(ref)
	for _, v := range probes {
		if got, want := tab.bin(0, v), binOf(edges, v); got != want {
			t.Fatalf("%s: edges %v: value %v (bits %#x) binned %d, binOf says %d",
				name, edges, v, math.Float64bits(v), got, want)
		}
	}
}

// TestEquivalenceBinTableMatchesBinarySearch pins the bin table to binOf,
// its oracle, value for value over binTableCases and binProbes.
func TestEquivalenceBinTableMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i, edges := range binTableCases(t) {
		checkBinTable(t, fmt.Sprintf("case %d", i), edges, binProbes(edges, rng))
	}
}

// FuzzBin holds the bin table to binOf on fuzzed edge sets: up to four
// fuzzed edges, sorted (non-finite ones dropped, as Validate would refuse
// them), probed at the fuzzed value and at every binProbes value.
func FuzzBin(f *testing.F) {
	for _, edges := range binTableCases(f) {
		e := append(slices.Clone(edges), 0, 0, 0)
		f.Add(e[0], e[len(edges)/2], e[len(edges)-1], e[len(edges)], 1.5)
	}
	f.Add(-1.5e308, 1.5e308, 0.0, 1.0, math.NaN())
	f.Fuzz(func(t *testing.T, e0, e1, e2, e3, v float64) {
		var edges []float64
		for _, e := range []float64{e0, e1, e2, e3} {
			if !math.IsNaN(e) && !math.IsInf(e, 0) {
				edges = append(edges, e)
			}
		}
		if len(edges) == 0 {
			return
		}
		slices.Sort(edges)
		probes := binProbes(edges, rand.New(rand.NewSource(int64(math.Float64bits(v)))))
		checkBinTable(t, "fuzz", edges, append(probes, v))
	})
}

// BenchmarkWindowAdd times Window.Add, the drift half of every ingested
// sample, on the samples a serving fleet bins: simulated 7-sensor DCGM
// telemetry, each job's samples in stream order, against the 16-bin
// reference fitted on them.
func BenchmarkWindowAdd(b *testing.B) {
	samples := simulatedSamples(b, 64, 540)
	ref, err := FitReference(samples, DefaultBins)
	if err != nil {
		b.Fatal(err)
	}
	tab := NewBinTable(ref)
	w := NewWindow(ref.Sensors(), ref.Bins)
	i := 0
	for b.Loop() {
		w.Add(tab, samples.Row(i))
		if i++; i == samples.Rows {
			i = 0
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
}
