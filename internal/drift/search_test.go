package drift_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/stream"
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

// fullSum is the distance of row to one reference row, summed in the scan's
// coordinate order with nothing abandoned.
func fullSum(fs *drift.FeatureStats, row []float64, ref int) float64 {
	d := 0.0
	for j, v := range fs.Train.Row(ref) {
		diff := (row[j]-fs.Means[j])/fs.Stds[j] - v
		d += diff * diff
	}
	return math.Sqrt(d)
}

// TestSearchModelCheck compares Distance with the exhaustive scan, bit for
// bit, on random reference sets chosen to be hard for a pruned search:
// degenerate sizes and widths, heavy tails, duplicates, constant columns,
// rows on a line (where the projection bound is tight and only the slack
// separates a near-tie from a wrong answer), clusters far from the origin
// (where projections cancel), and queries that are reference rows, one ulp
// off them, midway between two of them, far away, or not finite. Every
// query also runs both walks, plain and certifying, from starts that name
// no row (-1, n, MaxInt32), from both ends of Train, from a random row,
// from the previous query's winner and from its own, and each must return
// the scan's bits and a winning row at exactly that distance, and must
// agree with the row-by-row walk on its floor and on the rows it visited
// and summed (CheckWalk). Then query sequences run through one certificate
// each (checkCertifiedSequences); over the fixed seeds the certificate must
// settle some steps without a walk, or the check would not be checking it.
// All of it runs on both kernel paths.
func TestSearchModelCheck(t *testing.T) {
	seeds := make([]int64, 0, 41)
	for s := int64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	fixed := len(seeds)
	seeds = append(seeds, time.Now().UnixNano())
	if *driftSeed != 0 {
		seeds, fixed = []int64{*driftSeed}, 0
	}
	drift.OnEachPath(t, func(t *testing.T) {
		hits := 0
		for i, seed := range seeds {
			if h := checkSearchAgainstOracle(t, seed); i < fixed {
				hits += h
			}
		}
		if fixed > 0 && hits == 0 {
			t.Fatal("no step of any fixed seed's query sequences was settled by its certificate")
		}
	})
}

// checkSearchAgainstOracle runs one seed's reference set and returns how
// many sequence steps a certificate settled without a walk.
func checkSearchAgainstOracle(t *testing.T, seed int64) int {
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

	// Starts draw from their own stream, so the queries are the ones every
	// earlier version of this check generated for the seed.
	starts, prev := rand.New(rand.NewSource(^seed)), -1
	check := func(what string, q []float64) {
		t.Helper()
		want, got := exhaustive(fs, q), fs.Distance(q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d (%d×%d, shape %d, scale %g) %s: Distance %v (%#x), exhaustive scan %v (%#x)",
				seed, n, cols, shape, scale, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		_, own, _, _ := fs.WalkFrom(q, -1, false)
		for _, certifying := range []bool{false, true} {
			for _, from := range []int{-1, 0, n - 1, n, math.MaxInt32, starts.Intn(n), prev, own} {
				got, near, err := fs.CheckWalk(q, from, certifying)
				if err != nil {
					t.Fatalf("seed %d (%d×%d, shape %d, scale %g) %s: %v", seed, n, cols, shape, scale, what, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d (%d×%d, shape %d, scale %g) %s from %d (certifying %t): walk %v (%#x), exhaustive scan %v (%#x)",
						seed, n, cols, shape, scale, what, from, certifying, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				checkWinner(t, fs, q, near, got, fmt.Sprintf("seed %d %s from %d (certifying %t)", seed, what, from, certifying))
			}
		}
		prev = own
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
	return checkCertifiedSequences(t, seed, fs, scale, rng)
}

// checkWinner fails unless near is a row of fs.Train at exactly dist from
// q, or -1 with dist +Inf.
func checkWinner(t *testing.T, fs *drift.FeatureStats, q []float64, near int, dist float64, what string) {
	t.Helper()
	switch n := fs.Train.Rows; {
	case near == -1:
		if !math.IsInf(dist, 1) {
			t.Fatalf("%s: no winning row at distance %v", what, dist)
		}
	case near < 0 || near >= n:
		t.Fatalf("%s: winning row %d of %d", what, near, n)
	case math.Float64bits(fullSum(fs, q, near)) != math.Float64bits(dist):
		t.Fatalf("%s: winning row %d sums to %v, search returned %v", what, near, fullSum(fs, q, near), dist)
	}
}

// checkCertifiedSequences scores query sequences through one certificate
// each, as a job's window is scored tick after tick. A sequence is a random
// walk from a reference row, a midpoint of two rows, a near-tie (that
// midpoint one ulp towards one row) or a far point, with steps of 10⁻¹⁵ to
// 1 times the set's scale. Every step must have the scan's bits, the
// certificate's row must sum to them, and its ρ must not exceed the sum of
// any other row at the query it was proved at. Midway through a sequence
// one step is scored against a set of the same shape with a row planted on
// the query, through the same certificate: a proof about one reference set
// says nothing about another. Fs's Means are 0 and its Stds 1, so a query is
// its own standardised form. It returns how many steps the certificate
// settled without a walk.
func checkCertifiedSequences(t *testing.T, seed int64, fs *drift.FeatureStats, scale float64, rng *rand.Rand) int {
	t.Helper()
	n, cols := fs.Train.Rows, fs.Train.Cols
	hits := 0
	q := make([]float64, cols)
	for kind, what := range []string{"reference row", "midpoint", "near-tie", "far point"} {
		ri, rj := fs.Train.Row(rng.Intn(n)), fs.Train.Row(rng.Intn(n))
		for x := range q {
			switch kind {
			case 0:
				q[x] = ri[x]
			case 1, 2:
				q[x] = (ri[x] + rj[x]) / 2
			default:
				q[x] = rng.NormFloat64() * scale * 1e3
			}
		}
		if kind == 2 {
			c := rng.Intn(cols)
			q[c] = math.Nextafter(q[c], ri[c])
		}
		var cert drift.Cert
		const steps = 24
		for step := 0; step < steps; step++ {
			size := scale * math.Pow(10, -15*rng.Float64())
			for x := range q {
				q[x] += rng.NormFloat64() * size
			}
			on := fs
			if step == steps/2 {
				on = plantedTwin(fs, q, cert.Nearest())
			}
			want := exhaustive(on, q)
			got, hit := on.CertHit(q, &cert)
			at := fmt.Sprintf("seed %d (%d×%d) %s sequence, step %d (hit %t, twin %t)", seed, n, cols, what, step, hit, on != fs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: DistanceCert %v (%#x), exhaustive scan %v (%#x)", at, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			checkWinner(t, on, q, cert.Nearest(), got, at)
			if hit && on != fs {
				t.Fatalf("%s: a proof about another reference set settled the query", at)
			}
			zc, rho := cert.Proof()
			for i := 0; i < n && cert.Nearest() >= 0; i++ {
				if i != cert.Nearest() && !realDistAtLeast(zc, on.Train.Row(i), rho) {
					t.Fatalf("%s: row %d lies %v from the query the proof was made at, inside ρ = %v",
						at, i, fullSum(on, zc, i), rho)
				}
			}
			if hit {
				hits++
			}
		}
	}
	return hits
}

// realDistAtLeast reports whether the real distance ‖a−b‖, not its float64
// rounding, is at least r. It sums in double-double arithmetic: each
// difference is split exactly into two doubles and each square into two by
// a fused multiply-add, so the sum is off the real one by a few parts in
// 10³⁰, far inside the rounding a float64 sum makes and that ρ's margin must
// cover. Underflowing terms are the one exception, and no set here has them.
func realDistAtLeast(a, b []float64, r float64) bool {
	if r <= 0 {
		return true
	}
	hi, lo := 0.0, 0.0
	for j := range a {
		d := a[j] - b[j] // a−b = d+e exactly (TwoSum)
		bv := d - a[j]
		e := (a[j] - (d - bv)) + (-b[j] - bv)
		p := d * d
		q := math.FMA(d, d, -p) + 2*d*e + e*e
		s := hi + p // (hi, lo) += (p, q)
		v := s - hi
		lo += (hi - (s - v)) + (p - v) + q
		hi = s
	}
	r2 := r * r
	return (r2-hi)+(math.FMA(r, r, -r2)-lo) <= 0
}

// plantedTwin returns a reference set of fs's shape and statistics whose
// rows are fs's but for one, other than avoid when there are two or more,
// moved onto q: the nearest row to q there is not fs's.
func plantedTwin(fs *drift.FeatureStats, q []float64, avoid int) *drift.FeatureStats {
	twin := &drift.FeatureStats{Means: fs.Means, Stds: fs.Stds, Train: mat.New(fs.Train.Rows, fs.Train.Cols)}
	copy(twin.Train.Data, fs.Train.Data)
	plant := 0
	if fs.Train.Rows > 1 && avoid == 0 {
		plant = 1
	}
	copy(twin.Train.Row(plant), q)
	return twin
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
// nearest-rank DefaultQuantile.
func featQuantile(dists []float64) float64 {
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	return sorted[int(drift.DefaultQuantile*float64(len(sorted))+0.5)-1]
}

// TestFitMatchesExhaustiveCalibration pins the calibration of the
// smoke-preset seed-1 features to the one the exhaustive scan yields, on
// both kernel paths: the same MaxFeatDist bits, hence the same encoded
// bytes — the index is not in them.
func TestFitMatchesExhaustiveCalibration(t *testing.T) {
	smoke := core.PresetSmoke()
	fp, raw := covFeatures(t, core.Provenance{
		Dataset: "60-middle-1", Scale: smoke.Scale, Seed: smoke.Seed, MaxTrain: smoke.MaxTrain, MaxTest: smoke.MaxTest,
	})
	drift.OnEachPath(t, func(t *testing.T) { checkExhaustiveCalibration(t, fp, raw) })
}

// checkExhaustiveCalibration fits a calibration on fp and raw and holds it
// to the one the exhaustive scan yields.
func checkExhaustiveCalibration(t *testing.T, fp *core.FeaturePair, raw *mat.Matrix) {
	cal, err := drift.Fit(drift.FitInput{TrainFeatures: fp.TrainX, HeldOutFeatures: fp.TestX, RawSamples: raw}, drift.Options{})
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

// liveSim is the simulation the rung's live windows come from: the
// benchmark's live seed and scale, a simulation the reference set never saw.
func liveSim(b *testing.B) *telemetry.Simulator {
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1009, Scale: 0.08, GapRate: 1})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// embedWindows streams samples 0..n-1 of one job through the serving
// embedder and returns the feature rows of its windows, one sample apart.
func embedWindows(b *testing.B, fp *core.FeaturePair, sensors, n int, sample func(i int) []float64) [][]float64 {
	emb, err := stream.NewWindowedEmbedder(len(fp.Scaler.Means)/sensors, sensors, fp.Scaler)
	if err != nil {
		b.Fatal(err)
	}
	var rows [][]float64
	for i := 0; i < n; i++ {
		if err := emb.Push(sample(i)); err != nil {
			b.Fatal(err)
		}
		if emb.Ready() {
			row := make([]float64, emb.FeatureDim())
			if err := emb.FeaturesInto(row); err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// liveWindows returns, for the first jobs of liveSim that run long enough,
// the feature rows of steps windows one sample apart, starting 120 s in:
// past the class-agnostic start-up phase.
func liveWindows(b *testing.B, fp *core.FeaturePair, sensors, jobs, steps int) [][][]float64 {
	window := len(fp.Scaler.Means) / sensors
	const start = 120.0
	var out [][][]float64
	for _, j := range liveSim(b).Jobs() {
		n := window + steps - 1
		if len(out) == jobs || start+float64(n)*telemetry.GPUSampleDT > j.Duration {
			continue
		}
		samples, err := j.GPUWindow(0, start, n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, embedWindows(b, fp, sensors, n, samples.Row))
	}
	if len(out) == 0 {
		b.Fatal("no simulated job runs long enough")
	}
	return out
}

// feedWindows returns steps windows one sample apart for each of jobs jobs
// read as the benchmark's feed reads them (benchmark/setup.go): job k reads
// source series k mod the population of liveSim's jobs, each materialised
// from 120 s in for up to 2048 samples, from an offset drawn at seed 1, and
// wraps to the series' start at its end. Windows taken anywhere along a
// series, and across its wrap, are the ones a served tick scores.
func feedWindows(b *testing.B, fp *core.FeaturePair, sensors, jobs, steps int) [][][]float64 {
	window := len(fp.Scaler.Means) / sensors
	const start, feedLen = 120.0, 2048
	var src []*mat.Matrix
	for _, j := range liveSim(b).Jobs() {
		n := min(int((j.Duration-start)/telemetry.GPUSampleDT), feedLen)
		if n < window {
			continue
		}
		w, err := j.GPUWindow(0, start, n)
		if err != nil {
			b.Fatal(err)
		}
		src = append(src, w)
	}
	if len(src) == 0 {
		b.Fatal("no simulated job runs long enough")
	}
	rng := rand.New(rand.NewSource(1))
	out := make([][][]float64, jobs)
	for k := range out {
		m, off := src[k%len(src)], rng.Intn(feedLen)
		out[k] = embedWindows(b, fp, sensors, window+steps-1, func(i int) []float64 { return m.Row((off + i) % m.Rows) })
	}
	return out
}

// BenchmarkDistance is the drift stage's steady-state rung: one
// nearest-reference search against the reference set the benchmark's model
// serves with (60-middle-1, scale 0.08, seed 1: 1223×28), started cold for
// rows the gate accepts, held-out rows it rejects, and rows far outside the
// support; started warm, for live windows one sample apart seeded with the
// previous window's winner; and, as a tick scores them, for the same windows
// through each job's certificate (cert) and for windows read as the
// benchmark's feed reads them (feed). The warm, cert and feed cases run on
// each kernel path (path=scalar, path=avx512). visited/op is how many of the
// reference rows a search tested against its cut, summed/op how many it
// summed, start-won the share of warm searches the start row won, hit the
// share of cert and feed searches no walk ran for, and miss-visited the
// rows a walk visited on a miss.
func BenchmarkDistance(b *testing.B) {
	fp, raw := covFeatures(b, core.Provenance{Dataset: "60-middle-1", Scale: 0.08, Seed: 1})
	fs, err := drift.FitFeatureStats(fp.TrainX)
	if err != nil {
		b.Fatal(err)
	}
	dists := make([]float64, fp.TestX.Rows)
	for i := range dists {
		dists[i] = fs.Distance(fp.TestX.Row(i))
	}
	cut := featQuantile(dists)

	// A search is a row and the row of Train it starts from.
	type search struct {
		row  []float64
		from int
	}
	sets := map[string][]search{}
	for i, d := range dists {
		row := fp.TestX.Row(i)
		if d <= cut {
			sets["accepted"] = append(sets["accepted"], search{row, -1})
		} else {
			sets["rejected"] = append(sets["rejected"], search{row, -1})
		}
		far := make([]float64, len(row))
		for j, v := range row {
			far[j] = v * 1e3
		}
		sets["far"] = append(sets["far"], search{far, -1})
	}
	won := 0
	live := liveWindows(b, fp, raw.Cols, 16, 64)
	for _, job := range live {
		_, near, _, _ := fs.WalkFrom(job[0], -1, false)
		for _, row := range job[1:] {
			sets["warm"] = append(sets["warm"], search{row, near})
			from := near
			if _, near, _, _ = fs.WalkFrom(row, from, false); near == from {
				won++
			}
		}
	}
	eachPath := func(b *testing.B, fn func(b *testing.B)) {
		for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
			b.Run("path="+path, func(b *testing.B) {
				prev, ok := mat.SetKernelPath(path)
				if !ok {
					b.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s walk is not run", path)
				}
				defer mat.SetKernelPath(prev)
				fn(b)
			})
		}
	}
	for _, name := range []string{"accepted", "rejected", "far", "warm"} {
		walks := func(b *testing.B) {
			set, visited, summed := sets[name], 0, 0
			for _, s := range set {
				_, _, v, n := fs.WalkFrom(s.row, s.from, false)
				visited += v
				summed += n
			}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := set[i%len(set)]
				d, _, _, _ := fs.WalkFrom(s.row, s.from, false)
				sink += d
			}
			b.ReportMetric(float64(visited)/float64(len(set)), "visited/op")
			b.ReportMetric(float64(summed)/float64(len(set)), "summed/op")
			if name == "warm" {
				b.ReportMetric(float64(won)/float64(len(set)), "start-won")
			}
			if sink <= 0 {
				b.Fatal("distances summed to", sink)
			}
		}
		if name == "warm" {
			b.Run(name, func(b *testing.B) { eachPath(b, walks) })
		} else {
			b.Run(name, walks)
		}
	}

	// Windows scored as ticks score them: window by window across the jobs,
	// each job through its own certificate, proved on its first window. A
	// hit counts as the one row it sums (the distance from the proof's query
	// is the other sum).
	certs := func(jobs [][][]float64) func(b *testing.B) {
		return func(b *testing.B) {
			certs := make([]drift.Cert, len(jobs))
			hits, visited, summed, missVisited := 0, 0, 0, 0
			for k, job := range jobs {
				fs.DistanceCert(job[0], &certs[k])
			}
			for w := 1; w < len(jobs[0]); w++ {
				for k, job := range jobs {
					from := certs[k].Nearest()
					if _, hit := fs.CertHit(job[w], &certs[k]); hit {
						hits++
						visited++
						summed++
					} else {
						_, _, v, n := fs.WalkFrom(job[w], from, true)
						visited += v
						summed += n
						missVisited += v
					}
				}
			}
			ops := len(jobs) * (len(jobs[0]) - 1)
			for k, job := range jobs {
				certs[k] = drift.Cert{}
				fs.DistanceCert(job[0], &certs[k])
			}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, w := i%len(jobs), 1+i/len(jobs)%(len(jobs[0])-1)
				sink += fs.DistanceCert(jobs[k][w], &certs[k])
			}
			b.ReportMetric(float64(visited)/float64(ops), "visited/op")
			b.ReportMetric(float64(summed)/float64(ops), "summed/op")
			b.ReportMetric(float64(hits)/float64(ops), "hit")
			if misses := ops - hits; misses > 0 {
				b.ReportMetric(float64(missVisited)/float64(misses), "miss-visited")
			}
			if sink <= 0 {
				b.Fatal("distances summed to", sink)
			}
		}
	}
	b.Run("cert", func(b *testing.B) { eachPath(b, certs(live)) })
	b.Run("feed", func(b *testing.B) { eachPath(b, certs(feedWindows(b, fp, raw.Cols, 64, 64))) })
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
