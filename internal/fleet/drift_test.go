package fleet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/stream"
)

// fitTestCalibration builds a calibration whose threshold comes from the
// fixture model's probabilities on in-distribution covariance rows and
// whose reference histograms come from the jobSamples distribution.
func fitTestCalibration(t testing.TB, model interface {
	PredictProba(x *mat.Matrix) (*mat.Matrix, error)
}) *drift.Calibration {
	t.Helper()
	return fitCalibrationOn(t, model, 400)
}

// fitCalibrationOn is fitTestCalibration with trainRows reference rows.
func fitCalibrationOn(t testing.TB, model interface {
	PredictProba(x *mat.Matrix) (*mat.Matrix, error)
}, trainRows int) *drift.Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	// CovarianceDim(3) = 6: the same space the model was fitted on.
	trainFeats := mat.New(trainRows, 6)
	for i := range trainFeats.Data {
		trainFeats.Data[i] = rng.NormFloat64()
	}
	heldOut := mat.New(200, 6)
	for i := range heldOut.Data {
		heldOut.Data[i] = rng.NormFloat64()
	}
	probs, err := model.PredictProba(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	// Reference over the raw sensor distribution jobSamples draws from
	// (N(4, 2) per sensor).
	ref := mat.New(4000, testSensors)
	for i := range ref.Data {
		ref.Data[i] = rng.NormFloat64()*2 + 4
	}
	cal, err := drift.Fit(drift.FitInput{
		Probs: probs, TrainFeatures: trainFeats, HeldOutFeatures: heldOut, RawSamples: ref,
	}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestDriftEquivalenceBitIdentical pins the tentpole invariant: a
// drift-enabled monitor and a drift-disabled monitor fed the same replay
// publish bit-identical Class/Probability/Probs for every job; drift only
// adds the Open annotation.
func TestDriftEquivalenceBitIdentical(t *testing.T) {
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)

	plain, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	scored, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 48
	for k := 0; k < jobs; k++ {
		for _, s := range jobSamples(k, testWindow+3) {
			if err := plain.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
			if err := scored.Ingest(k, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := plain.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := scored.Tick(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < jobs; k++ {
		want, ok := plain.Prediction(k)
		if !ok {
			t.Fatalf("job %d: no baseline prediction", k)
		}
		got, ok := scored.Prediction(k)
		if !ok {
			t.Fatalf("job %d: no drift-enabled prediction", k)
		}
		assertSamePrediction(t, k, got, want)
		if want.Open != nil {
			t.Fatalf("job %d: drift-disabled prediction carries an Open annotation", k)
		}
		if got.Open == nil {
			t.Fatalf("job %d: drift-enabled prediction lacks the Open annotation", k)
		}
		// The verdict must agree with the gate applied to the annotation's own
		// distance (the embedding row is internal to the tick), and the
		// retired probability scores read zero.
		if got.Open.Rejected != cal.Threshold.Reject(drift.Score{FeatDist: got.Open.FeatDist}) {
			t.Fatalf("job %d: annotation %+v disagrees with the gate", k, got.Open)
		}
		if got.Open.Margin != 0 || got.Open.Energy != 0 {
			t.Fatalf("job %d: retired scores margin %v, energy %v; want 0", k, got.Open.Margin, got.Open.Energy)
		}
		if cal.Feat == nil || got.Open.FeatDist <= 0 {
			t.Fatalf("job %d: feature gate inactive (dist %v)", k, got.Open.FeatDist)
		}
	}

	st := scored.DriftStats()
	if !st.Enabled {
		t.Fatal("drift stats disabled on a drift-enabled monitor")
	}
	if want := uint64(jobs * (testWindow + 3)); st.Samples != want {
		t.Fatalf("drift stats binned %d samples, want %d", st.Samples, want)
	}
	if len(st.SensorPSI) != testSensors {
		t.Fatalf("PSI over %d sensors, want %d", len(st.SensorPSI), testSensors)
	}
	if plainStats := plain.DriftStats(); plainStats.Enabled {
		t.Fatal("drift stats enabled on a plain monitor")
	}
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
// same window, rebuilt on a shadow embedder.
func TestWarmStartScoresLikeColdSearch(t *testing.T) {
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Shards: 2, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, steps = 32, 8
	samples := make([][][]float64, jobs)
	shadows := make([]*stream.WindowedEmbedder, jobs)
	for k := range shadows {
		samples[k] = jobSamples(k, testWindow+3*steps)
		if shadows[k], err = stream.NewWindowedEmbedder(testWindow, testSensors, scaler); err != nil {
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

	feed(testWindow)
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

	small := fitCalibrationOn(t, model, 200)
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
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)
	// A maximally strict threshold: everything is rejected. This isolates
	// the counting path from the model's actual score distribution.
	cal.Threshold.MaxFeatDist = math.SmallestNonzeroFloat64
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		for _, s := range jobSamples(k, testWindow) {
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
	scaler, model := fixture(t)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model})
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
	good := jobSamples(1, testWindow)
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
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)
	m, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	feed := func() {
		t.Helper()
		for k := 0; k < 6; k++ {
			for _, s := range jobSamples(k, testWindow) {
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
	strict := fitTestCalibration(t, model)
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
	scaler, model := fixture(t)
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model,
		Drift: &drift.Calibration{}}); err == nil {
		t.Fatal("calibration without a reference accepted")
	}
	cal := fitTestCalibration(t, model)
	bad := &drift.Calibration{Threshold: cal.Threshold, Ref: cal.Ref}
	bad.Ref = &drift.Reference{Bins: cal.Ref.Bins, Edges: cal.Ref.Edges[:2], Props: cal.Ref.Props[:2]}
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model,
		Drift: bad}); err == nil {
		t.Fatal("sensor-count mismatch accepted")
	}
	// Feature statistics of the wrong width would index out of the
	// embedding row on the first scored tick — construction must refuse,
	// and so must the swap path (a crafted artifact may arrive there too).
	short := fitTestCalibration(t, model)
	short.Feat.Means = short.Feat.Means[:3]
	short.Feat.Stds = short.Feat.Stds[:3]
	if _, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model,
		Drift: short}); err == nil {
		t.Fatal("feature-width mismatch accepted at construction")
	}
	good, err := New(Config{Window: testWindow, Sensors: testSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.SwapClassifierDrift(model, short); err == nil {
		t.Fatal("feature-width mismatch accepted at swap")
	}
	if !good.DriftStats().Enabled {
		t.Fatal("failed swap disturbed the live calibration")
	}
}
