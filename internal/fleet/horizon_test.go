package fleet

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/preprocess"
	"repro/internal/servetest"
	"repro/internal/stream"
)

// pricingRow is one subsample rate's row of the pricing table: the PSI
// error against full binning over a set of trials, and how often the fleet
// score fell in full binning's band, over all trials and over those whose
// full score sits at least bandGuard from a band edge.
type pricingRow struct {
	shift           uint // one sample in 1<<shift is binned
	binned          int  // samples binned, summed over the trials
	meanErr, maxErr float64
	agree           int
	clear, clearAgr int
}

// bandGuard is the indifference zone around the band edges (PSI 0.1 and
// 0.25): a trial whose full-binning score lies this close to an edge flips
// band under any rate, so it says nothing about the rate.
const bandGuard = 0.01

// priceSubsample bins trials horizons of the given size from 64 jobs, each
// sample in-distribution (servetest.IDSamples, class job%4) or, with a
// probability stratified over [0, 0.3) across the trials, from
// servetest.OODSamples, so the fleet score falls in all three bands. Every
// sample is binned into a full histogram and, where picked selects it, into
// one per subsample rate; a trial's error is the largest per-sensor
// |PSI_k − PSI_1|.
func priceSubsample(ref *drift.Reference, horizon, trials int) []pricingRow {
	const jobs, pool = 64, 4096
	var id [servetest.Classes][][]float64
	for c := range id {
		id[c] = servetest.IDSamples(c, 1000+c, pool)
	}
	ood := servetest.OODSamples(1000, pool)
	bins := drift.NewBinTable(ref)
	rows := make([]pricingRow, 4)
	for k := range rows {
		rows[k].shift = uint(k)
	}
	windows := make([]*drift.Window, len(rows))
	for t := range trials {
		share := 0.3 * (float64(t) + 0.5) / float64(trials)
		rng := rand.New(rand.NewSource(int64(t) + 1))
		for k := range windows {
			windows[k] = drift.NewWindow(ref.Sensors(), ref.Bins)
		}
		for i := range horizon {
			job := t*jobs + i%jobs
			v := id[job%servetest.Classes][rng.Intn(pool)]
			if rng.Float64() < share {
				v = ood[rng.Intn(pool)]
			}
			h, n := JobHash(job), uint64(i/jobs+1)
			for k, w := range windows {
				if picked(h, n, rows[k].shift) {
					w.Add(bins, v)
				}
			}
		}
		full := ref.PSI(windows[0])
		score := drift.FleetScore(full)
		clear := math.Abs(score-0.1) >= bandGuard && math.Abs(score-0.25) >= bandGuard
		for k, w := range windows {
			psi, r := ref.PSI(w), &rows[k]
			r.binned += int(w.Samples)
			worst := 0.0
			for c := range psi {
				worst = math.Max(worst, math.Abs(psi[c]-full[c]))
			}
			r.meanErr += worst / float64(trials)
			r.maxErr = math.Max(r.maxErr, worst)
			same := drift.Band(drift.FleetScore(psi)) == drift.Band(score)
			if same {
				r.agree++
			}
			if clear {
				r.clear++
				if same {
					r.clearAgr++
				}
			}
		}
	}
	return rows
}

// The pricing rule (DESIGN.md §10). A rate's band agreement holds when, over
// a ten-job fleet's horizon (10⁵ samples at the simulator's 9 Hz), it puts
// the fleet score in full binning's band on at least pricingAgreement of the
// trials clear of an edge. binShift is the largest priced rate that holds;
// pricedPSIError bounds the per-sensor PSI error it showed there, the bound
// the aliasing test holds the served histograms to.
const (
	pricingHorizon   = 100_000
	pricingAgreement = 0.99
	pricedPSIError   = 0.03
)

// TestDriftSubsamplePricing prices the drift histograms' one-in-k pick for
// k = 1, 2, 4, 8 on a one-job and a ten-job horizon and pins the choice:
// binEvery is the largest priced k whose band agreement holds, and its PSI
// error on the ten-job horizon stays within pricedPSIError. Run with -v for
// the table DESIGN.md §10 carries.
func TestDriftSubsamplePricing(t *testing.T) {
	_, _, cal, _, _ := servetest.Flywheel(t)
	var table strings.Builder
	table.WriteString("| k | Horizon | Trials | Binned | PSI abs error, mean | PSI abs error, max | Band agreement | Clear of an edge |\n")
	table.WriteString("|---|---|---|---|---|---|---|---|\n")
	largest := uint(0)
	for _, set := range []struct{ horizon, trials int }{{10_000, 200}, {pricingHorizon, 100}} {
		rows := priceSubsample(cal.Ref, set.horizon, set.trials)
		for _, r := range rows {
			fmt.Fprintf(&table, "| %d | %d | %d | %d | %.4f | %.4f | %.1f %% | %d/%d |\n", 1<<r.shift, set.horizon, set.trials,
				r.binned, r.meanErr, r.maxErr, 100*float64(r.agree)/float64(set.trials), r.clearAgr, r.clear)
			if set.horizon != pricingHorizon {
				continue
			}
			if float64(r.clearAgr) >= pricingAgreement*float64(r.clear) {
				largest = r.shift
			}
			if r.shift == binShift && r.maxErr > pricedPSIError {
				t.Errorf("k = %d: PSI error %.4f, priced at %v", binEvery, r.maxErr, pricedPSIError)
			}
		}
	}
	t.Logf("subsample pricing:\n%s", table.String())
	if largest != binShift {
		t.Errorf("the largest k whose band agreement holds is %d, binEvery is %d", 1<<largest, binEvery)
	}
}

// TestDriftSubsampleDoesNotAlias pins "a hash, not a stride": one job
// streams a signal whose period is exactly the subsample's stride, binEvery
// samples and then 2·binEvery, each phase a level in its own reference bin
// on every sensor. The served histograms' per-sensor PSI stays within
// pricedPSIError of binning every sample, while a stride pick (n%binEvery ==
// 0) bins a phase or two and misses by more.
func TestDriftSubsampleDoesNotAlias(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	bins := drift.NewBinTable(cal.Ref)
	// level is a value inside reference bin b of sensor c.
	level := func(c, b int) float64 {
		edges := cal.Ref.Edges[c]
		switch b {
		case 0:
			return edges[0] - 1
		case len(edges):
			return edges[b-1] + 1
		}
		return (edges[b-1] + edges[b]) / 2
	}
	const job = 7
	for _, period := range []int{binEvery, 2 * binEvery} {
		m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
			Drift: cal, Now: func() time.Time { return time.Unix(1000, 0) }})
		if err != nil {
			t.Fatal(err)
		}
		phases := make([][]float64, period)
		for j := range phases {
			phases[j] = make([]float64, servetest.Sensors)
			for c := range phases[j] {
				phases[j][c] = level(c, j*cal.Ref.Bins/period)
			}
		}
		full := drift.NewWindow(servetest.Sensors, cal.Ref.Bins)
		stride := drift.NewWindow(servetest.Sensors, cal.Ref.Bins)
		var b Batch
		for i := 0; i < pricingHorizon; {
			b.Samples = b.Samples[:0]
			for ; i < pricingHorizon && len(b.Samples) < 1024; i++ {
				v := phases[i%period]
				b.Samples = append(b.Samples, Sample{Job: job, Values: v})
				full.Add(bins, v)
				if (i+1)%binEvery == 0 {
					stride.Add(bins, v)
				}
			}
			if errs := m.IngestBatch(&b); len(errs) != 0 {
				t.Fatal(errs[0].Err)
			}
		}
		got, want, aliased := m.DriftStats().SensorPSI, cal.Ref.PSI(full), cal.Ref.PSI(stride)
		worstStride := 0.0
		for c := range want {
			if d := math.Abs(got[c] - want[c]); d > pricedPSIError {
				t.Errorf("period %d, sensor %d: subsampled PSI %.4f, full binning %.4f (off by %.4f, priced at %v)",
					period, c, got[c], want[c], d, pricedPSIError)
			}
			worstStride = math.Max(worstStride, math.Abs(aliased[c]-want[c]))
		}
		if worstStride <= pricedPSIError {
			t.Errorf("period %d: a stride pick is off by only %.4f; the signal does not test aliasing", period, worstStride)
		}
	}
}

// horizonSeed replays one horizon check: go test -run DriftHorizonReadsShift
// -horizon.seed=N. Without it the check runs priors of 10⁴, 10⁵ and 10⁶
// samples plus one seed drawn from the clock, whose prior is log-uniform
// over that range, so repeated runs (-count=20 nightly) keep covering new
// priors, partition counts and shift phases.
var horizonSeed = flag.Int64("horizon.seed", 0, "replay TestDriftHorizonReadsShift with this seed only")

// The horizon check's fixed sample rate and ingest batch.
const (
	horizonRate  = 50 // samples a second, fleet-wide
	horizonBatch = 1000
)

// TestDriftHorizonReadsShift is finding 6's measurement under the injected
// clock at a fixed sample rate: after a stable prior of 10⁴ to 10⁶
// in-distribution samples from 64 jobs, a shift in which one sample in five
// comes from servetest.OODSamples reads moderate or worse within one
// horizon, however long the prior ran. Since-install histograms took as
// many shifted samples as the prior held.
func TestDriftHorizonReadsShift(t *testing.T) {
	type run struct {
		seed  int64
		prior int
	}
	drawn := func(seed int64) run {
		return run{seed, int(math.Pow(10, 4+2*rand.New(rand.NewSource(seed)).Float64()))}
	}
	runs := []run{{1, 10_000}, {2, 100_000}, {3, 1_000_000}, drawn(time.Now().UnixNano())}
	if *horizonSeed != 0 {
		runs = []run{drawn(*horizonSeed)}
	}
	scaler, model, cal, _, _ := servetest.Flywheel(t)
	for _, r := range runs {
		checkHorizon(t, scaler, model, cal, r.seed, r.prior)
	}
}

func checkHorizon(t *testing.T, scaler *preprocess.StandardScaler, model stream.Classifier, cal *drift.Calibration, seed int64, prior int) {
	t.Helper()
	const jobs = 64
	rng := rand.New(rand.NewSource(seed))
	// The shift starts at a random phase of an epoch.
	clock := time.Unix(1000, 0)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Shards: 1 + rng.Intn(3), Drift: cal, Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Duration(rng.Int63n(1 << epochShift)))
	step := time.Duration(horizonBatch) * time.Second / horizonRate
	var b Batch
	feed := func(oodEvery int) {
		t.Helper()
		var id [servetest.Classes][][]float64
		for c := range id {
			id[c] = servetest.IDSamples(c, rng.Int(), horizonBatch/servetest.Classes)
		}
		ood := servetest.OODSamples(rng.Int(), horizonBatch)
		b.Samples = b.Samples[:0]
		for i := range horizonBatch {
			s := Sample{Job: i % jobs, Values: id[i%servetest.Classes][i/servetest.Classes]}
			if oodEvery > 0 && i%oodEvery == 0 {
				s.Values = ood[i]
			}
			b.Samples = append(b.Samples, s)
		}
		if errs := m.IngestBatch(&b); len(errs) != 0 {
			t.Fatalf("seed %d: %v", seed, errs[0].Err)
		}
		clock = clock.Add(step)
	}
	for n := 0; n < prior; n += horizonBatch {
		feed(0)
	}
	if st := m.DriftStats(); drift.Band(st.Score) != drift.BandStable {
		t.Fatalf("seed %d, prior %d: the in-distribution prior reads %s (score %.4f)", seed, prior, drift.Band(st.Score), st.Score)
	}
	const horizon = horizonEpochs << epochShift
	for waited := step; ; waited += step {
		feed(5)
		st := m.DriftStats()
		if drift.Band(st.Score) != drift.BandStable {
			t.Logf("seed %d, prior %d: %s (score %.3f, %d binned) %v after the shift began",
				seed, prior, drift.Band(st.Score), st.Score, st.Samples, waited)
			break
		}
		if waited >= horizon {
			t.Fatalf("seed %d, prior %d: the shift still reads stable %v after it began, a horizon is %v (replay with -horizon.seed=%d)",
				seed, prior, waited, time.Duration(horizon), seed)
		}
	}
	// One horizon after the last sample, nothing is left to read.
	clock = clock.Add(horizon - step)
	if st := m.DriftStats(); st.Samples != 0 || st.Score != 0 {
		t.Fatalf("seed %d, prior %d: a horizon after the last sample, %d samples still read %.4f", seed, prior, st.Samples, st.Score)
	}
}

// TestDriftLateSampleKeepsNewerBucket: a sample whose clock read is a whole
// horizon older than its bucket's epoch (an injected clock stepped back, or
// an ingest that lost the race for its stripe for a horizon) is dropped from
// the histograms; it never zeroes the newer counts.
func TestDriftLateSampleKeepsNewerBucket(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	start := time.Unix(1000, 0)
	clock := start
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Drift: servetest.Calibration(t, 31, 400), Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(at time.Duration, n int) {
		t.Helper()
		clock = start.Add(at)
		for _, s := range servetest.JobSamples(1, n) {
			if err := m.Ingest(1, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	const epoch = time.Duration(1) << epochShift
	ingest((horizonEpochs+1)*epoch, 64)
	want := m.DriftStats()
	ingest(epoch, 64) // the same bucket, a horizon earlier
	clock = start.Add((horizonEpochs + 1) * epoch)
	if got := m.DriftStats(); want.Samples == 0 || got.Samples != want.Samples || got.Score != want.Score {
		t.Fatalf("after a late sample the horizon reads %d samples (score %v), want %d (score %v)",
			got.Samples, got.Score, want.Samples, want.Score)
	}
}
