package fleet

import (
	"math"
	"testing"

	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/servetest"
	"repro/internal/stream"
)

// TestDriftEquivalenceBitIdentical pins the drift invariant: a
// drift-enabled monitor and a drift-disabled monitor fed the same stream
// publish bit-identical Class/Probability/Probs for every job; drift only
// adds the Open annotation, whose verdict is the gate's on its own
// distance, and bins one accepted sample in eight. A row of the twin table
// (twin_test.go).
func TestDriftEquivalenceBitIdentical(t *testing.T) {
	runTwins(t, twinRow{a: twinSide{shards: 1, drift: true}, b: twinSide{shards: 1},
		jobs: 48, perJob: servetest.Window + 3, seed: 3})
}

// TestWarmStartScoresLikeColdSearch pins the drift certificate a job
// carries between ticks: each score goes through the proof the job's last
// window left, and no proof ever shows in a score. Jobs on two partitions
// tick after every sample, so their certificates are warm; then a
// calibration with a smaller reference set swaps in, so some certificates
// name no row of it and the rest name unrelated rows; then one of the same
// shape with a row planted next to each job's window, so every certificate
// names a row in range, still where it was, and is wrong about it being the
// nearest. Throughout, every published
// FeatDist has the bits of a cold search by the active calibration over the
// same window, rebuilt on a shadow embedder. It runs on both kernel paths.
func TestWarmStartScoresLikeColdSearch(t *testing.T) {
	for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
		t.Run(path, func(t *testing.T) {
			prev, ok := mat.SetKernelPath(path)
			if !ok {
				t.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s path is not run", path)
			}
			defer mat.SetKernelPath(prev)
			checkWarmStartScoresLikeColdSearch(t)
		})
	}
}

func checkWarmStartScoresLikeColdSearch(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Shards: 2, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, steps = 32, 8
	samples := make([][][]float64, jobs)
	shadows := make([]*stream.WindowedEmbedder, jobs)
	for k := range shadows {
		samples[k] = servetest.JobSamples(k, servetest.Window+3*steps)
		if shadows[k], err = stream.NewWindowedEmbedder(servetest.Window, servetest.Sensors, scaler); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	feed := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			for k := range samples {
				if err := m.Ingest(k, samples[k][next]); err != nil {
					t.Fatal(err)
				}
				if err := shadows[k].Push(samples[k][next]); err != nil {
					t.Fatal(err)
				}
			}
			next++
		}
	}
	tickAndCheck := func(active *drift.Calibration) {
		t.Helper()
		if stats, err := m.Tick(); err != nil || stats.Classified != jobs {
			t.Fatalf("after sample %d: tick %+v, %v", next, stats, err)
		}
		for k, shadow := range shadows {
			row, err := shadow.Features()
			if err != nil {
				t.Fatal(err)
			}
			pred, ok := m.Prediction(k)
			if !ok || pred.Open == nil {
				t.Fatalf("job %d: no scored prediction", k)
			}
			if got, want := pred.Open.FeatDist, active.Feat.Distance(row.Data); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("job %d after sample %d: published distance %v, cold search %v", k, next, got, want)
			}
		}
	}

	feed(servetest.Window)
	tickAndCheck(cal)
	for range steps {
		feed(1)
		tickAndCheck(cal)
	}

	// proved counts the jobs whose certificate names a row below rows and
	// those whose certificate names one past it.
	proved := func(rows int) (inside, past int) {
		for _, p := range m.parts {
			p.eachStripe(func(st *stripe) {
				for _, js := range st.jobs {
					if near := js.cert.Nearest(); near >= rows {
						past++
					} else if near >= 0 {
						inside++
					}
				}
			})
		}
		return inside, past
	}

	small := servetest.Calibration(t, 31, 200)
	if err := m.SwapClassifierDrift(model, small); err != nil {
		t.Fatal(err)
	}
	if inside, past := proved(small.Feat.Train.Rows); past == 0 || inside == 0 {
		t.Fatalf("after the swap %d certificates name no row of the new set and %d name one; want both", past, inside)
	}
	for range steps {
		feed(1)
		tickAndCheck(small)
	}

	// The same shape again, but another set: small's rows, except that one
	// row per job, never one a certificate names, moves onto that job's
	// current window. Every certificate still names a row in range that
	// lies where it did, and its proof might settle the next window, but a
	// planted row is nearer now.
	named := map[int]bool{}
	for _, p := range m.parts {
		p.eachStripe(func(st *stripe) {
			for _, js := range st.jobs {
				named[js.cert.Nearest()] = true
			}
		})
	}
	fs := small.Feat
	planted, free := mat.New(fs.Train.Rows, fs.Train.Cols), 0
	copy(planted.Data, fs.Train.Data)
	for _, shadow := range shadows {
		row, err := shadow.Features()
		if err != nil {
			t.Fatal(err)
		}
		for named[free] {
			free++
		}
		for j, v := range row.Data {
			planted.Row(free)[j] = (v - fs.Means[j]) / fs.Stds[j]
		}
		free++
	}
	twin := &drift.Calibration{
		Threshold: small.Threshold, Ref: small.Ref,
		Feat: &drift.FeatureStats{Means: fs.Means, Stds: fs.Stds, Train: planted},
	}
	if err := m.SwapClassifierDrift(model, twin); err != nil {
		t.Fatal(err)
	}
	if inside, _ := proved(twin.Feat.Train.Rows); inside != jobs {
		t.Fatalf("after the same-shape swap %d of %d certificates name a row in range; want all", inside, jobs)
	}
	for range steps {
		feed(1)
		tickAndCheck(twin)
	}
}

// TestDriftUnknownCounting feeds windows whose covariance structure is far
// outside the threshold's calibration and checks the unknown counter moves.
func TestDriftUnknownCounting(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	// A maximally strict threshold: everything is rejected. This isolates
	// the counting path from the model's actual score distribution.
	cal.Threshold.MaxFeatDist = math.SmallestNonzeroFloat64
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		for _, s := range servetest.JobSamples(k, servetest.Window) {
			if err := m.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if m.Unknowns() != 5 {
		t.Fatalf("unknowns = %d, want 5", m.Unknowns())
	}
	for k := 0; k < 5; k++ {
		pred, ok := m.Prediction(k)
		if !ok || pred.Open == nil || !pred.Open.Rejected {
			t.Fatalf("job %d not flagged unknown: %+v", k, pred)
		}
	}
}

// TestIngestRejectsNonFinite pins the sample sanity gate: NaN, ±Inf and
// absurd magnitudes are refused (without registering the job) because they
// would permanently poison the incremental covariance sums.
func TestIngestRejectsNonFinite(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e13, -1e13} {
		s := []float64{1, bad, 3}
		if err := m.Ingest(7, s); err == nil {
			t.Fatalf("sample with %v accepted", bad)
		}
	}
	if m.NumJobs() != 0 {
		t.Fatalf("invalid samples registered %d jobs", m.NumJobs())
	}
	// A job already streaming keeps its state when one sample is refused.
	good := servetest.JobSamples(1, servetest.Window)
	for _, s := range good {
		if err := m.Ingest(1, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Ingest(1, []float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("NaN accepted mid-stream")
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Prediction(1); !ok {
		t.Fatal("job lost its window after a rejected sample")
	}
}

// TestSwapClassifierDriftCoherence pins the hot-swap contract: the
// calibration travels with its model (verdicts after a swap use the NEW
// thresholds), the accumulated histograms reset for the new generation,
// and a nil calibration disables detection.
func TestSwapClassifierDriftCoherence(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	feed := func() {
		t.Helper()
		for k := 0; k < 6; k++ {
			for _, s := range servetest.JobSamples(k, servetest.Window) {
				if err := m.Ingest(k, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	feed()
	if st := m.DriftStats(); st.Samples == 0 {
		t.Fatal("no drift samples before the swap")
	}

	// Swap in the same model with a reject-everything calibration: the
	// new thresholds must govern immediately and the histograms restart.
	strict := servetest.Calibration(t, 31, 400)
	strict.Threshold.MaxFeatDist = math.SmallestNonzeroFloat64
	if err := m.SwapClassifierDrift(model, strict); err != nil {
		t.Fatal(err)
	}
	if st := m.DriftStats(); !st.Enabled || st.Samples != 0 {
		t.Fatalf("histograms did not reset on drift swap: %+v", st)
	}
	before := m.Unknowns()
	feed()
	if got := m.Unknowns() - before; got != 6 {
		t.Fatalf("new thresholds rejected %d of 6 classifications", got)
	}
	for k := 0; k < 6; k++ {
		pred, _ := m.Prediction(k)
		if pred.Open == nil || !pred.Open.Rejected {
			t.Fatalf("job %d not scored by the swapped-in calibration", k)
		}
	}

	// A nil calibration disables detection without disturbing serving.
	if err := m.SwapClassifierDrift(model, nil); err != nil {
		t.Fatal(err)
	}
	if m.DriftStats().Enabled {
		t.Fatal("drift still enabled after swapping a nil calibration")
	}
	feed()
	pred, ok := m.Prediction(0)
	if !ok || pred.Open != nil {
		t.Fatalf("prediction after disabling drift: %+v (ok %v)", pred, ok)
	}
}

// TestDriftConfigValidation pins construction-time checks.
func TestDriftConfigValidation(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Drift: &drift.Calibration{}}); err == nil {
		t.Fatal("calibration without a reference accepted")
	}
	cal := servetest.Calibration(t, 31, 400)
	bad := &drift.Calibration{Threshold: cal.Threshold, Ref: cal.Ref}
	bad.Ref = &drift.Reference{Bins: cal.Ref.Bins, Edges: cal.Ref.Edges[:2], Props: cal.Ref.Props[:2]}
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Drift: bad}); err == nil {
		t.Fatal("sensor-count mismatch accepted")
	}
	// Feature statistics of the wrong width would index out of the
	// embedding row on the first scored tick — construction must refuse,
	// and so must the swap path (a crafted artifact may arrive there too).
	short := servetest.Calibration(t, 31, 400)
	short.Feat.Means = short.Feat.Means[:3]
	short.Feat.Stds = short.Feat.Stds[:3]
	if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Drift: short}); err == nil {
		t.Fatal("feature-width mismatch accepted at construction")
	}
	good, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.SwapClassifierDrift(model, short); err == nil {
		t.Fatal("feature-width mismatch accepted at swap")
	}
	if !good.DriftStats().Enabled {
		t.Fatal("failed swap disturbed the live calibration")
	}

	// A hand-built calibration is refused where a decoded one would be: the
	// shapes would index out of range in Ingest, DriftStats or the tick's
	// drift pass, and the values would switch the gate off or reject every
	// row.
	for name, corrupt := range map[string]func(c *drift.Calibration){
		"more edges than Bins-1": func(c *drift.Calibration) { c.Ref.Edges[0] = append(c.Ref.Edges[0], 1e9) },
		"Bins below the edges":   func(c *drift.Calibration) { c.Ref.Bins = 2 },
		"short proportions":      func(c *drift.Calibration) { c.Ref.Props[1] = c.Ref.Props[1][:2] },
		"short feature stds":     func(c *drift.Calibration) { c.Feat.Stds = c.Feat.Stds[:3] },
		"NaN edge":               func(c *drift.Calibration) { c.Ref.Edges[0][3] = math.NaN() },
		"NaN proportion":         func(c *drift.Calibration) { c.Ref.Props[2][1] = math.NaN() },
		"NaN cut point":          func(c *drift.Calibration) { c.Threshold.MaxFeatDist = math.NaN() },
		"zero feature std":       func(c *drift.Calibration) { c.Feat.Stds[2] = 0 },
	} {
		c := servetest.Calibration(t, 31, 400)
		corrupt(c)
		if _, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
			Drift: c}); err == nil {
			t.Errorf("calibration with %s accepted at construction", name)
		}
		if err := good.SwapClassifierDrift(model, c); err == nil {
			t.Errorf("calibration with %s accepted at swap", name)
		}
	}
	if good.Swaps() != 0 {
		t.Fatalf("%d refused swaps installed", good.Swaps())
	}
}

// TestShardedDriftStatsMatchSingleMonitor pins the merge contract: a
// 4-partition monitor and a one-partition monitor fed the same stream
// report bit-identical drift stats — counts are summed before the PSI is
// computed, exactly as TickStats are merged — and the same annotation on
// every job. A row of the twin table (twin_test.go).
func TestShardedDriftStatsMatchSingleMonitor(t *testing.T) {
	runTwins(t, twinRow{a: twinSide{shards: 4, drift: true}, b: twinSide{shards: 1, drift: true},
		jobs: 60, perJob: servetest.Window + 2, seed: 4})
}

// TestShardedDriftDisabled pins the zero value on a partitioned monitor
// built without a calibration.
func TestShardedDriftDisabled(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	m := newPartitioned(t, scaler, model, 3)
	if st := m.DriftStats(); st.Enabled || st.Samples != 0 || st.SensorPSI != nil {
		t.Fatalf("drift stats on a plain monitor: %+v", st)
	}
	if m.Unknowns() != 0 {
		t.Fatal("unknowns nonzero on a plain monitor")
	}
}
