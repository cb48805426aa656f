package fleet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/drift"
	"repro/internal/mat"
)

// fitTestCalibration builds a calibration whose threshold comes from the
// fixture model's probabilities on in-distribution covariance rows and
// whose reference histograms come from the jobSamples distribution.
func fitTestCalibration(t *testing.T, model interface {
	PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error)
}) *drift.Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	// CovarianceDim(3) = 6: the same space the model was fitted on.
	trainFeats := mat.New(400, 6)
	for i := range trainFeats.Data {
		trainFeats.Data[i] = rng.NormFloat64()
	}
	heldOut := mat.New(200, 6)
	for i := range heldOut.Data {
		heldOut.Data[i] = rng.NormFloat64()
	}
	probs, err := model.PredictProbaBatch(heldOut)
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
		// The annotation must agree with re-scoring the published probs
		// (the feature distance is taken from the annotation itself — the
		// embedding row is internal to the tick).
		sc := drift.ScoreProbs(got.Probs, cal.Threshold.Temperature)
		sc.FeatDist = got.Open.FeatDist
		if got.Open.Margin != sc.Margin || got.Open.Energy != sc.Energy ||
			got.Open.Rejected != cal.Threshold.Reject(sc) {
			t.Fatalf("job %d: annotation %+v disagrees with re-scored %+v", k, got.Open, sc)
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

// TestDriftUnknownCounting feeds windows whose covariance structure is far
// outside the threshold's calibration and checks the unknown counter moves.
func TestDriftUnknownCounting(t *testing.T) {
	scaler, model := fixture(t)
	cal := fitTestCalibration(t, model)
	// A maximally strict threshold: everything is rejected. This isolates
	// the counting path from the model's actual score distribution.
	cal.Threshold.MinConf = 2
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
	strict.Threshold.MinConf = 2
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
