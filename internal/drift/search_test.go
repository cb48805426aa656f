package drift_test

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// exhaustive is the oracle the search is checked against: the scan Distance
// ran before it had an index. Every reference row is summed coordinate by
// coordinate, abandoning a row once it exceeds the best so far.
func exhaustive(fs *drift.FeatureStats, row []float64) float64 {
	z := make([]float64, len(row))
	for j, v := range row {
		z[j] = (v - fs.Means[j]) / fs.Stds[j]
	}
	best := math.Inf(1)
	for i := 0; i < fs.Train.Rows; i++ {
		tr := fs.Train.Row(i)
		d := 0.0
		for j := range z {
			diff := z[j] - tr[j]
			d += diff * diff
			if d >= best {
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// driftSeed replays one model-check reference set: go test -run
// SearchModelCheck ./internal/drift -drift.seed=N. Without it the check runs
// a fixed set of seeds plus one drawn from the clock, so repeated runs keep
// covering new sets.
var driftSeed = flag.Int64("drift.seed", 0, "replay TestSearchModelCheck with this seed only")

// TestSearchModelCheck compares Distance with the exhaustive scan, bit for
// bit, on random reference sets chosen to be hard for a pruned search:
// degenerate sizes and widths, heavy tails, duplicates, constant columns,
// rows on a line (where the projection bound is tight and only the slack
// separates a near-tie from a wrong answer), clusters far from the origin
// (where projections cancel), and queries that are reference rows, one ulp
// off them, midway between two of them, far away, or not finite.
func TestSearchModelCheck(t *testing.T) {
	seeds := make([]int64, 0, 41)
	for s := int64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	seeds = append(seeds, time.Now().UnixNano())
	if *driftSeed != 0 {
		seeds = []int64{*driftSeed}
	}
	for _, seed := range seeds {
		checkSearchAgainstOracle(t, seed)
	}
}

func checkSearchAgainstOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	n := pick(1, 2, 3, 40, 300, 2048)
	cols := pick(1, 2, 28, 28, 29)
	scale := []float64{1, 1, 1e3, 1e6}[rng.Intn(4)]
	shape := rng.Intn(4) // gaussian, heavy-tailed, a line, a short line far from the origin

	// Means 0 and Stds 1 keep standardising exact, so a query equal to a
	// reference row must score exactly +0.
	fs := &drift.FeatureStats{Means: make([]float64, cols), Stds: make([]float64, cols), Train: mat.New(n, cols)}
	for j := range fs.Stds {
		fs.Stds[j] = 1
	}
	dir, centre := make([]float64, cols), make([]float64, cols)
	origin := rng.Intn(2) == 0 // a line through the origin: the nearest row is as far off as the query is long
	for j := range dir {
		dir[j] = rng.NormFloat64()
		if !origin {
			centre[j] = rng.NormFloat64() * scale
		}
	}
	for i := 0; i < n; i++ {
		r := fs.Train.Row(i)
		s := (float64(i-n/2) + rng.Float64()/2) * scale // ascending, so rows i and i+1 are neighbours on the line
		for j := range r {
			switch shape {
			case 0:
				r[j] = rng.NormFloat64() * scale
			case 1:
				r[j] = math.Exp(3*rng.NormFloat64()) * scale * float64(1-2*rng.Intn(2))
			case 2:
				r[j] = centre[j] + s*dir[j] + rng.NormFloat64()*1e-9*scale
			default:
				r[j] = centre[j]*1e3 + s/scale*1e-3*dir[j]
			}
		}
	}
	if n > 1 && rng.Intn(2) == 0 { // duplicated rows
		for k := 0; k < 1+n/10; k++ {
			copy(fs.Train.Row(rng.Intn(n)), fs.Train.Row(rng.Intn(n)))
		}
	}
	if rng.Intn(3) == 0 { // a constant column, as FitFeatureStats leaves it
		j := rng.Intn(cols)
		for i := 0; i < n; i++ {
			fs.Train.Row(i)[j] = 0
		}
	}

	check := func(what string, q []float64) {
		t.Helper()
		want, got := exhaustive(fs, q), fs.Distance(q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d (%d×%d, shape %d, scale %g) %s: Distance %v (%#x), exhaustive scan %v (%#x)",
				seed, n, cols, shape, scale, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	q := make([]float64, cols)
	for k := 0; k < 60; k++ {
		i, j, c := rng.Intn(n), rng.Intn(n), rng.Intn(cols)
		if k%2 == 0 && i+1 < n {
			j = i + 1
		}
		ri, rj := fs.Train.Row(i), fs.Train.Row(j)

		copy(q, ri)
		if d := fs.Distance(q); math.Float64bits(d) != 0 {
			t.Fatalf("seed %d: reference row %d scores %v against its own set, want +0", seed, i, d)
		}
		q[c] = math.Nextafter(ri[c], math.Inf(1))
		check("row +1ulp", q)
		q[c] = math.Nextafter(ri[c], math.Inf(-1))
		check("row -1ulp", q)

		for x := range q {
			q[x] = (ri[x] + rj[x]) / 2
		}
		check("midpoint of two rows", q)
		q[c] = math.Nextafter(q[c], ri[c])
		check("midpoint nudged towards one row", q)

		for x := range q {
			q[x] = ri[x] + rng.NormFloat64()*scale*[]float64{1e-9, 1e-3, 1, 1e3}[k%4]
		}
		check("perturbed row", q)
		for x := range q {
			q[x] = rng.NormFloat64() * scale * 1e3
		}
		check("far point", q)

		copy(q, ri)
		q[c] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}[k%4]
		check("non-finite coordinate", q)
	}
}

// covFeatures regenerates the covariance features of a 60-middle-1 training
// run from its provenance.
func covFeatures(tb testing.TB, p core.Provenance) (*core.FeaturePair, *mat.Matrix) {
	tb.Helper()
	_, ch, err := p.Regenerate()
	if err != nil {
		tb.Fatal(err)
	}
	fp, err := core.CovFeatures(ch)
	if err != nil {
		tb.Fatal(err)
	}
	return fp, core.RawSensorSamples(ch.Train.X)
}

// featQuantile is the cut point Fit calibrates from held-out distances: their
// nearest-rank DefaultFeatQuantile.
func featQuantile(dists []float64) float64 {
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	return sorted[int(drift.DefaultFeatQuantile*float64(len(sorted))+0.5)-1]
}

// TestFitMatchesExhaustiveCalibration pins the calibration of the
// smoke-preset seed-1 model to the one the exhaustive scan yields: the same
// MaxFeatDist bits, hence the same encoded bytes — the index is not in them.
func TestFitMatchesExhaustiveCalibration(t *testing.T) {
	smoke := core.PresetSmoke()
	fp, raw := covFeatures(t, core.Provenance{
		Dataset: "60-middle-1", Scale: smoke.Scale, Seed: smoke.Seed, MaxTrain: smoke.MaxTrain, MaxTest: smoke.MaxTest,
	})
	rf := forest.New(forest.Config{NumTrees: smoke.RFTrees[0], Bootstrap: true, Seed: smoke.Seed})
	if err := rf.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)); err != nil {
		t.Fatal(err)
	}
	probs, err := rf.PredictProbaBatch(fp.TestX)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := drift.Fit(drift.FitInput{Probs: probs, TrainFeatures: fp.TrainX, HeldOutFeatures: fp.TestX, RawSamples: raw}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}

	dists := make([]float64, fp.TestX.Rows)
	for i := range dists {
		dists[i] = exhaustive(cal.Feat, fp.TestX.Row(i))
		if got := cal.Feat.Distance(fp.TestX.Row(i)); math.Float64bits(got) != math.Float64bits(dists[i]) {
			t.Fatalf("held-out row %d: Distance %v, exhaustive scan %v", i, got, dists[i])
		}
	}
	want := *cal
	want.Threshold.MaxFeatDist = featQuantile(dists)
	if got := cal.Threshold.MaxFeatDist; math.Float64bits(got) != math.Float64bits(want.Threshold.MaxFeatDist) {
		t.Fatalf("MaxFeatDist %v, the exhaustive scan calibrates %v", got, want.Threshold.MaxFeatDist)
	}
	var got, oracle bytes.Buffer
	if err := cal.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&oracle); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
		t.Fatal("encoded calibration differs from the exhaustive scan's")
	}
}

// BenchmarkDistance is the drift stage's steady-state rung: one
// nearest-reference search against the reference set the benchmark's model
// serves with (60-middle-1, scale 0.08, seed 1: 1223×28), for rows the gate
// accepts, held-out rows it rejects, and rows far outside the support.
// visited/op is how many of the reference rows a search looked at.
func BenchmarkDistance(b *testing.B) {
	fp, _ := covFeatures(b, core.Provenance{Dataset: "60-middle-1", Scale: 0.08, Seed: 1})
	fs, err := drift.FitFeatureStats(fp.TrainX)
	if err != nil {
		b.Fatal(err)
	}
	dists := make([]float64, fp.TestX.Rows)
	for i := range dists {
		dists[i] = fs.Distance(fp.TestX.Row(i))
	}
	cut := featQuantile(dists)

	rows := map[string][][]float64{}
	for i, d := range dists {
		row := fp.TestX.Row(i)
		if d <= cut {
			rows["accepted"] = append(rows["accepted"], row)
		} else {
			rows["rejected"] = append(rows["rejected"], row)
		}
		far := make([]float64, len(row))
		for j, v := range row {
			far[j] = v * 1e3
		}
		rows["far"] = append(rows["far"], far)
	}
	for _, name := range []string{"accepted", "rejected", "far"} {
		b.Run(name, func(b *testing.B) {
			set, visited := rows[name], 0
			for _, row := range set {
				visited += fs.Visited(row)
			}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += fs.Distance(set[i%len(set)])
			}
			b.ReportMetric(float64(visited)/float64(len(set)), "visited/op")
			if sink <= 0 {
				b.Fatal("distances summed to", sink)
			}
		})
	}
}

// TestIndexBuiltOnceOnConcurrentFirstUse: a FeatureStats assembled by hand
// gets its index on first use, and a tick's scoring pass makes that first
// use from several goroutines at once.
func TestIndexBuiltOnceOnConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fs := &drift.FeatureStats{Means: make([]float64, 28), Stds: make([]float64, 28), Train: mat.New(500, 28)}
	for j := range fs.Stds {
		fs.Means[j], fs.Stds[j] = rng.NormFloat64(), 1+rng.Float64()
	}
	for i := range fs.Train.Data {
		fs.Train.Data[i] = rng.NormFloat64()
	}
	queries := mat.New(64, 28)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64() * 2
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries.Rows; i++ {
				q := queries.Row(i)
				if got, want := fs.Distance(q), exhaustive(fs, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("query %d: Distance %v, exhaustive scan %v", i, got, want)
				}
			}
		}()
	}
	wg.Wait()
}
