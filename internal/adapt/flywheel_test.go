package adapt

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/stream"
)

const (
	e2eWindow  = 6
	e2eSensors = 3
	e2eClasses = 4
)

// Class means with distinct squared deviations from the overall mean: the
// covariance embedding keeps only uncentered second moments of the
// standardised window, so equally-spaced means would collide in ± pairs
// (mean +z and -z embed identically). Unequal magnitudes keep all four
// classes separable.
var idMeans = [e2eClasses]float64{2, 4, 8, 16}

// idSamples generates one in-distribution job's raw telemetry.
func idSamples(class, seed, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 3))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, e2eSensors)
		for c := range s {
			s[c] = rng.NormFloat64() + idMeans[class]
		}
		out[i] = s
	}
	return out
}

// oodSamples generates an out-of-distribution job: a coherent workload
// family no training class covers (mean 28 — well past every class mean).
func oodSamples(seed, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(seed)*104729 + 7))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, e2eSensors)
		for c := range s {
			s[c] = rng.NormFloat64() + 28
		}
		out[i] = s
	}
	return out
}

// collectObserver harvests the embedded feature rows the fleet computes,
// keyed by job — the bridge that lets the fixture train on exactly the
// features live serving produces.
type collectObserver struct {
	mu   sync.Mutex
	rows map[int][]float64
}

func (c *collectObserver) ObserveWindow(o fleet.Observation) {
	c.mu.Lock()
	c.rows[o.Job] = append([]float64(nil), o.Features...)
	c.mu.Unlock()
}

// servingFixture builds a realistic serving stack: a scaler fitted on ID
// windows, a forest trained on the fleet's own embedded features, a drift
// calibration that accepts ID traffic and rejects the OOD family, and the
// base feature pair an in-process Trainer widens.
func servingFixture(t *testing.T) (*preprocess.StandardScaler, *forest.Classifier, *drift.Calibration, *core.FeaturePair, *mat.Matrix) {
	t.Helper()
	const perClass = 60
	const trainPer = 45

	// Scaler over flattened ID windows, and the raw PSI reference over the
	// same samples.
	flat := mat.New(e2eClasses*perClass, e2eWindow*e2eSensors)
	raw := mat.New(e2eClasses*perClass*e2eWindow, e2eSensors)
	ri := 0
	for j := 0; j < e2eClasses*perClass; j++ {
		for si, s := range idSamples(j%e2eClasses, j, e2eWindow) {
			copy(flat.Data[j*e2eWindow*e2eSensors+si*e2eSensors:], s)
			copy(raw.Data[ri*e2eSensors:(ri+1)*e2eSensors], s)
			ri++
		}
	}
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(flat); err != nil {
		t.Fatal(err)
	}

	// Harvest the embedded rows through a fleet with a throwaway model: the
	// observer hook hands back exactly the features serving will compute.
	dim := preprocess.CovarianceDim(e2eSensors)
	rng := rand.New(rand.NewSource(1))
	dummyX := mat.New(80, dim)
	for i := range dummyX.Data {
		dummyX.Data[i] = rng.NormFloat64()
	}
	dummyY := make([]int, dummyX.Rows)
	for i := range dummyY {
		dummyY[i] = rng.Intn(e2eClasses)
	}
	dummy := forest.New(forest.Config{NumTrees: 5, Bootstrap: true, Seed: 2})
	if err := dummy.Fit(dummyX, dummyY, e2eClasses); err != nil {
		t.Fatal(err)
	}
	collect, err := fleet.New(fleet.Config{Window: e2eWindow, Sensors: e2eSensors, Scaler: &scaler, Model: dummy})
	if err != nil {
		t.Fatal(err)
	}
	obs := &collectObserver{rows: make(map[int][]float64)}
	collect.SetAdaptObserver(obs)
	for j := 0; j < e2eClasses*perClass; j++ {
		for _, s := range idSamples(j%e2eClasses, j, e2eWindow) {
			if err := collect.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := collect.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(obs.rows) != e2eClasses*perClass {
		t.Fatalf("harvested %d feature rows, want %d", len(obs.rows), e2eClasses*perClass)
	}

	// Per-class train/test split over the harvested rows.
	trainX := mat.New(e2eClasses*trainPer, dim)
	trainY := make([]int, 0, trainX.Rows)
	testX := mat.New(e2eClasses*(perClass-trainPer), dim)
	testY := make([]int, 0, testX.Rows)
	for j := 0; j < e2eClasses*perClass; j++ {
		row, ok := obs.rows[j]
		if !ok {
			t.Fatalf("job %d produced no feature row", j)
		}
		if j/e2eClasses < trainPer {
			copy(trainX.Data[len(trainY)*dim:], row)
			trainY = append(trainY, j%e2eClasses)
		} else {
			copy(testX.Data[len(testY)*dim:], row)
			testY = append(testY, j%e2eClasses)
		}
	}

	model := forest.New(forest.Config{NumTrees: 30, Bootstrap: true, Seed: 3})
	if err := model.Fit(trainX, trainY, e2eClasses); err != nil {
		t.Fatal(err)
	}
	probs, err := model.PredictProbaBatch(testX)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := drift.Fit(drift.FitInput{
		Probs: probs, TrainFeatures: trainX, HeldOutFeatures: testX, RawSamples: raw,
	}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := &core.FeaturePair{TrainX: trainX, TrainY: trainY, TestX: testX, TestY: testY, Scaler: &scaler}
	return &scaler, model, cal, fp, raw
}

// ingestPhase drives one traffic phase: idJobs in-distribution jobs (class
// = job index mod 4) then oodJobs out-of-distribution jobs, one window
// each, job IDs starting at base. Returns the OOD job IDs.
func ingestPhase(t *testing.T, monitors []*fleet.Monitor, base, idJobs, oodJobs int) []int {
	t.Helper()
	for j := 0; j < idJobs; j++ {
		for _, s := range idSamples(j%e2eClasses, base+j, e2eWindow) {
			for _, m := range monitors {
				if err := m.Ingest(base+j, s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var ood []int
	for j := 0; j < oodJobs; j++ {
		id := base + idJobs + j
		ood = append(ood, id)
		for _, s := range oodSamples(id, e2eWindow) {
			for _, m := range monitors {
				if err := m.Ingest(id, s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, m := range monitors {
		if _, err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return ood
}

// rejectedRate reads the open-set verdicts of the given jobs.
func rejectedRate(t *testing.T, m *fleet.Monitor, jobs []int) float64 {
	t.Helper()
	rejected := 0
	for _, id := range jobs {
		pred, ok := m.Prediction(id)
		if !ok {
			t.Fatalf("job %d has no prediction", id)
		}
		if pred.Open != nil && pred.Open.Rejected {
			rejected++
		}
	}
	return float64(rejected) / float64(len(jobs))
}

// fixtureTrainer widens the harvested base feature pair — the in-process
// equivalent of the provenance trainer, without the simulator round trip.
type fixtureTrainer struct {
	fp  *core.FeaturePair
	raw *mat.Matrix
}

func (ft *fixtureTrainer) Train(fams []Family) (*artifact.Artifact, error) {
	return BuildCandidateArtifact(ft.fp, ft.raw, fams, CandidateOptions{
		BaseMeta: artifact.Metadata{
			ClassNames: []string{"c0", "c1", "c2", "c3"},
			Window:     e2eWindow, Sensors: e2eSensors, Seed: 3,
		},
		Trees: 30,
		// The held-out set carries only a handful of family rows, and they
		// dominate the distance tail; the default 0.95 quantile would cut
		// into the family region itself.
		Quantile: 0.99,
	})
}

// TestAdaptEquivalenceBitIdentical pins the tentpole invariant: a monitor
// with the adapt flywheel observing publishes bit-identical
// Class/Probability/Probs/Open verdicts to one without, for every job, ID
// and OOD alike — until a promotion is explicitly installed, the flywheel
// only watches.
func TestAdaptEquivalenceBitIdentical(t *testing.T) {
	scaler, model, cal, fp, raw := servingFixture(t)

	plain, err := fleet.New(fleet.Config{Window: e2eWindow, Sensors: e2eSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := fleet.New(fleet.Config{Window: e2eWindow, Sensors: e2eSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		FeatureDim:  preprocess.CovarianceDim(e2eSensors),
		MinSupport:  10,
		Radius:      12,
		Calibration: cal,
		Trainer:     &fixtureTrainer{fp: fp, raw: raw},
	})
	if err != nil {
		t.Fatal(err)
	}
	observed.SetAdaptObserver(mgr)

	ood := ingestPhase(t, []*fleet.Monitor{plain, observed}, 0, 40, 24)

	for j := 0; j < 64; j++ {
		want, ok := plain.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no plain prediction", j)
		}
		got, ok := observed.Prediction(j)
		if !ok {
			t.Fatalf("job %d: no observed prediction", j)
		}
		if got.Class != want.Class || got.Probability != want.Probability {
			t.Fatalf("job %d: observed (%d, %v) vs plain (%d, %v)", j, got.Class, got.Probability, want.Class, want.Probability)
		}
		for c := range want.Probs {
			if got.Probs[c] != want.Probs[c] {
				t.Fatalf("job %d class %d: %v vs %v (not bit-identical)", j, c, got.Probs[c], want.Probs[c])
			}
		}
		if (got.Open != nil) != (want.Open != nil) {
			t.Fatalf("job %d: open-set annotation diverged", j)
		}
		if got.Open != nil && got.Open.Rejected != want.Open.Rejected {
			t.Fatalf("job %d: verdict diverged: %v vs %v", j, got.Open.Rejected, want.Open.Rejected)
		}
	}

	// And the flywheel did observe: the OOD jobs' rejections are buffered.
	st := mgr.Status()
	if st.Observed == 0 || st.Buffered == 0 {
		t.Fatalf("flywheel observed nothing: %+v", st)
	}
	if st.Buffered > len(ood) {
		t.Fatalf("buffered %d rows from %d OOD jobs", st.Buffered, len(ood))
	}

	// Building and shadowing still changes nothing about serving: tick
	// the same traffic again and compare once more.
	if err := mgr.BuildCandidate(); err != nil {
		t.Fatal(err)
	}
	ingestPhase(t, []*fleet.Monitor{plain, observed}, 100, 20, 10)
	for j := 100; j < 130; j++ {
		want, _ := plain.Prediction(j)
		got, _ := observed.Prediction(j)
		if want == nil || got == nil {
			t.Fatalf("job %d: missing prediction", j)
		}
		if got.Class != want.Class || got.Probability != want.Probability {
			t.Fatalf("job %d: shadow scoring leaked into serving: (%d, %v) vs (%d, %v)",
				j, got.Class, got.Probability, want.Class, want.Probability)
		}
	}
	if st := mgr.Status(); st.Shadow == nil || st.Shadow.Windows == 0 {
		t.Fatalf("candidate shadow-scored nothing: %+v", st)
	}
}

// TestFlywheelE2EUnknownRateDrops is the full single-node loop: injected
// OOD traffic is rejected, buffered, clustered into a family, a candidate
// is trained and shadow-scored, the gate opens, promotion swaps the
// candidate in through SwapClassifierDrift — and the unknown rate on the
// same OOD family collapses below 20% of its pre-promotion rate while the
// generation advances cleanly.
func TestFlywheelE2EUnknownRateDrops(t *testing.T) {
	scaler, model, cal, fp, raw := servingFixture(t)
	monitor, err := fleet.New(fleet.Config{Window: e2eWindow, Sensors: e2eSensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		FeatureDim:       preprocess.CovarianceDim(e2eSensors),
		MinSupport:       20,
		Radius:           12,
		Calibration:      cal,
		Trainer:          &fixtureTrainer{fp: fp, raw: raw},
		ShadowMinWindows: 40,
		GateAgreement:    0.8,
		Promote: func(a *artifact.Artifact) error {
			return monitor.SwapClassifierDrift(a.Model.(stream.Classifier), a.Drift)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	monitor.SetAdaptObserver(mgr)
	ms := []*fleet.Monitor{monitor}

	// Phase A: the OOD family shows up and serving rejects it. Support
	// matters: the candidate's feature gate is calibrated from held-out
	// family rows, so the buffer must sample the family densely enough
	// that its distance scale is represented.
	oodA := ingestPhase(t, ms, 0, 40, 60)
	preRate := rejectedRate(t, monitor, oodA)
	if preRate < 0.5 {
		t.Fatalf("pre-promotion OOD rejection rate %.2f: the fixture family is not out-of-distribution enough", preRate)
	}
	st := mgr.Status()
	if st.Buffered < 20 {
		t.Fatalf("buffered %d rejected windows, want >= MinSupport", st.Buffered)
	}

	// Cluster + train: the family becomes candidate class novel-0.
	if err := mgr.BuildCandidate(); err != nil {
		t.Fatal(err)
	}
	st = mgr.Status()
	if st.Phase != PhaseShadow || len(st.Families) == 0 || st.Candidate == nil {
		t.Fatalf("after build: %+v", st)
	}
	if st.Candidate.ClassNames[len(st.Candidate.ClassNames)-1] != "novel-0" {
		t.Fatalf("candidate classes %v lack novel-0", st.Candidate.ClassNames)
	}

	// Phase B: shadow scoring over live traffic opens the gate.
	ingestPhase(t, ms, 100, 40, 30)
	st = mgr.Status()
	if st.Shadow == nil || st.Shadow.Windows < 40 {
		t.Fatalf("shadow under-scored: %+v", st.Shadow)
	}
	if !st.GateReady {
		t.Fatalf("gate closed after healthy shadow: %+v", st.Shadow)
	}
	if err := mgr.PromoteIfReady(); err != nil {
		t.Fatal(err)
	}
	if n := monitor.Swaps(); n != 1 {
		t.Fatalf("promotion performed %d swaps, want 1", n)
	}

	// Phase C: the same OOD family is now a recognised class.
	oodC := ingestPhase(t, ms, 200, 40, 30)
	postRate := rejectedRate(t, monitor, oodC)
	if postRate > 0.2*preRate {
		t.Fatalf("post-promotion OOD rejection rate %.2f vs pre %.2f: flywheel did not close the gap", postRate, preRate)
	}
	novel := 0
	for _, id := range oodC {
		pred, _ := monitor.Prediction(id)
		if pred != nil && pred.Class == e2eClasses {
			novel++
		}
	}
	if novel < len(oodC)*3/4 {
		t.Fatalf("only %d/%d OOD jobs classified as the novel class", novel, len(oodC))
	}

	// The generation advanced cleanly and the flywheel restarted buffering.
	st = mgr.Status()
	if st.Gen != 1 || st.Phase != PhaseBuffer || st.Shadow != nil {
		t.Fatalf("after promotion cycle: %+v", st)
	}
	if st.Promotions != 1 {
		t.Fatalf("promotions %d, want 1", st.Promotions)
	}
}
