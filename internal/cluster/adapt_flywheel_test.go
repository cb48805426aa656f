package cluster_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/cluster/clustertest"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
)

// The cluster flywheel test reuses the adapt package's fixture recipe: four
// in-distribution classes at raw means 2+2.5c and one coherent OOD family
// at mean 14, embedded through the real fleet so the fixture trains on
// exactly the features live serving computes.

const (
	fwWindow  = 6
	fwSensors = 3
	fwClasses = 4
)

// Class means with distinct squared deviations from the overall mean: the
// uncentered covariance embedding collides equally-spaced means in ± pairs
// after standardisation, so the magnitudes must be unequal.
var fwIDMeans = [fwClasses]float64{2, 4, 8, 16}

func fwIDSamples(class, seed, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 3))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, fwSensors)
		for c := range s {
			s[c] = rng.NormFloat64() + fwIDMeans[class]
		}
		out[i] = s
	}
	return out
}

func fwOODSamples(seed, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(seed)*104729 + 7))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, fwSensors)
		for c := range s {
			s[c] = rng.NormFloat64() + 28
		}
		out[i] = s
	}
	return out
}

type fwCollector struct {
	mu   sync.Mutex
	rows map[int][]float64
}

func (c *fwCollector) ObserveWindow(o fleet.Observation) {
	c.mu.Lock()
	c.rows[o.Job] = append([]float64(nil), o.Features...)
	c.mu.Unlock()
}

// fwFixture builds the serving stack the cluster boots with: scaler,
// 4-class forest on fleet-embedded features, drift calibration, and the
// base feature pair the in-process trainer widens with novel families.
func fwFixture(t *testing.T) (*preprocess.StandardScaler, *forest.Classifier, *drift.Calibration, *core.FeaturePair, *mat.Matrix) {
	t.Helper()
	const perClass = 60
	const trainPer = 45

	flat := mat.New(fwClasses*perClass, fwWindow*fwSensors)
	raw := mat.New(fwClasses*perClass*fwWindow, fwSensors)
	ri := 0
	for j := 0; j < fwClasses*perClass; j++ {
		for si, s := range fwIDSamples(j%fwClasses, j, fwWindow) {
			copy(flat.Data[j*fwWindow*fwSensors+si*fwSensors:], s)
			copy(raw.Data[ri*fwSensors:(ri+1)*fwSensors], s)
			ri++
		}
	}
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(flat); err != nil {
		t.Fatal(err)
	}

	dim := preprocess.CovarianceDim(fwSensors)
	rng := rand.New(rand.NewSource(1))
	dummyX := mat.New(80, dim)
	for i := range dummyX.Data {
		dummyX.Data[i] = rng.NormFloat64()
	}
	dummyY := make([]int, dummyX.Rows)
	for i := range dummyY {
		dummyY[i] = rng.Intn(fwClasses)
	}
	dummy := forest.New(forest.Config{NumTrees: 5, Bootstrap: true, Seed: 2})
	if err := dummy.Fit(dummyX, dummyY, fwClasses); err != nil {
		t.Fatal(err)
	}
	collect, err := fleet.New(fleet.Config{Window: fwWindow, Sensors: fwSensors, Scaler: &scaler, Model: dummy})
	if err != nil {
		t.Fatal(err)
	}
	obs := &fwCollector{rows: make(map[int][]float64)}
	collect.SetAdaptObserver(obs)
	for j := 0; j < fwClasses*perClass; j++ {
		for _, s := range fwIDSamples(j%fwClasses, j, fwWindow) {
			if err := collect.Ingest(j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := collect.Tick(); err != nil {
		t.Fatal(err)
	}

	trainX := mat.New(fwClasses*trainPer, dim)
	trainY := make([]int, 0, trainX.Rows)
	testX := mat.New(fwClasses*(perClass-trainPer), dim)
	testY := make([]int, 0, testX.Rows)
	for j := 0; j < fwClasses*perClass; j++ {
		row, ok := obs.rows[j]
		if !ok {
			t.Fatalf("job %d produced no feature row", j)
		}
		if j/fwClasses < trainPer {
			copy(trainX.Data[len(trainY)*dim:], row)
			trainY = append(trainY, j%fwClasses)
		} else {
			copy(testX.Data[len(testY)*dim:], row)
			testY = append(testY, j%fwClasses)
		}
	}
	model := forest.New(forest.Config{NumTrees: 30, Bootstrap: true, Seed: 3})
	if err := model.Fit(trainX, trainY, fwClasses); err != nil {
		t.Fatal(err)
	}
	probs, err := model.PredictProba(testX)
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

// fwTrainer widens the base feature pair in-process; the BaseMeta carries
// the full servable shape so the candidate artifact passes the cluster's
// per-node ServableModel gates during the rolling swap.
type fwTrainer struct {
	fp  *core.FeaturePair
	raw *mat.Matrix
}

func (ft *fwTrainer) Train(fams []adapt.Family) (*artifact.Artifact, error) {
	return adapt.BuildCandidateArtifact(ft.fp, ft.raw, fams, adapt.CandidateOptions{
		BaseMeta: artifact.Metadata{
			Kind:       artifact.KindForest,
			Features:   "cov",
			ClassNames: []string{"c0", "c1", "c2", "c3"},
			Window:     fwWindow, Sensors: fwSensors, Seed: 3,
		},
		Trees: 30,
		// The held-out set carries only a handful of family rows, and they
		// dominate the distance tail; the default 0.95 quantile would cut
		// into the family region itself.
		Quantile: 0.99,
	})
}

// fwDrive pushes one traffic phase directly into a node's core: idJobs
// in-distribution jobs then oodJobs OOD jobs, one full window each, then a
// deterministic tick. Returns the OOD job IDs.
func fwDrive(t *testing.T, c *fleet.Monitor, base, idJobs, oodJobs int) []int {
	t.Helper()
	for j := 0; j < idJobs; j++ {
		for _, s := range fwIDSamples(j%fwClasses, base+j, fwWindow) {
			if err := c.Ingest(base+j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ood []int
	for j := 0; j < oodJobs; j++ {
		id := base + idJobs + j
		ood = append(ood, id)
		for _, s := range fwOODSamples(id, fwWindow) {
			if err := c.Ingest(id, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	return ood
}

func fwRejectedRate(t *testing.T, c *fleet.Monitor, jobs []int) float64 {
	t.Helper()
	rejected := 0
	for _, id := range jobs {
		pred, ok := c.Prediction(id)
		if !ok {
			t.Fatalf("job %d has no prediction", id)
		}
		if pred.Unknown() {
			rejected++
		}
	}
	return float64(rejected) / float64(len(jobs))
}

// TestClusterFlywheelPromotion runs the full continual-learning loop
// against a live 3-node cluster: OOD traffic rejected and buffered on one
// node, a candidate trained and shadow-scored there, then promoted through
// the cluster's replicate→prepare→commit swap — after which every node
// serves the widened class set at the same generation (no torn
// generation), and the OOD family's unknown rate collapses fleet-wide.
func TestClusterFlywheelPromotion(t *testing.T) {
	scaler, model, cal, fp, raw := fwFixture(t)
	c := clustertest.Start(t, clustertest.Options{
		Nodes: 3, Window: fwWindow, Sensors: fwSensors,
		Scaler: scaler, Model: model, Drift: cal,
	})

	// The flywheel watches node 0; promotion rolls the whole cluster.
	dir := t.TempDir()
	candPath := filepath.Join(dir, "candidate.wcc")
	mgr, err := adapt.New(adapt.Config{
		FeatureDim:       preprocess.CovarianceDim(fwSensors),
		MinSupport:       20,
		Radius:           12,
		Calibration:      cal,
		Trainer:          &fwTrainer{fp: fp, raw: raw},
		ShadowMinWindows: 40,
		GateAgreement:    0.8,
		Promote: func(a *artifact.Artifact) error {
			if err := artifact.Save(candPath, a); err != nil {
				return err
			}
			_, err := c.Member(0).Cluster.DistributeFile(candPath)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Member(0).Core.SetAdaptObserver(mgr)

	// Phase A on node 0: the OOD family is rejected and buffered. Support
	// matters: the candidate's feature gate is calibrated from held-out
	// family rows, so the buffer must sample the family densely enough
	// that its distance scale is represented.
	oodA := fwDrive(t, c.Member(0).Core, 0, 40, 60)
	preRate := fwRejectedRate(t, c.Member(0).Core, oodA)
	if preRate < 0.5 {
		t.Fatalf("pre-promotion OOD rejection rate %.2f, fixture not OOD enough", preRate)
	}
	if st := mgr.Status(); st.Buffered < 20 {
		t.Fatalf("buffered %d rejected windows, want >= MinSupport", st.Buffered)
	}
	if err := mgr.BuildCandidate(); err != nil {
		t.Fatal(err)
	}

	// Phase B: shadow over live node-0 traffic until the gate opens.
	fwDrive(t, c.Member(0).Core, 1000, 40, 30)
	st := mgr.Status()
	if !st.GateReady {
		t.Fatalf("gate closed after healthy shadow: %+v", st.Shadow)
	}
	if err := mgr.PromoteIfReady(); err != nil {
		t.Fatal(err)
	}

	// Every node lands on cluster gen 1 with the same artifact identity:
	// the swap committed everywhere, nothing torn.
	wantIdent := c.Member(0).Cluster.Identity()
	if wantIdent == "" {
		t.Fatal("coordinator has no artifact identity after promotion")
	}
	for i := 0; i < 3; i++ {
		m := c.Member(i)
		if !clustertest.Settle(5*time.Second, func() bool {
			return m.Cluster.Gen() == 1 && m.Cluster.Identity() == wantIdent
		}) {
			t.Fatalf("node %d stuck at gen %d identity %q, want gen 1 %q",
				i, m.Cluster.Gen(), m.Cluster.Identity(), wantIdent)
		}
	}

	// Phase C: the same OOD family hits every node and is now a recognised
	// class fleet-wide.
	for i := 0; i < 3; i++ {
		oodC := fwDrive(t, c.Member(i).Core, 2000+500*i, 10, 20)
		postRate := fwRejectedRate(t, c.Member(i).Core, oodC)
		if postRate > 0.2*preRate {
			for _, id := range oodC {
				if pred, ok := c.Member(i).Core.Prediction(id); ok && pred.Open != nil {
					t.Logf("job %d class %d prob %.3f featdist %.3f rejected %v",
						id, pred.Class, pred.Probability, pred.Open.FeatDist, pred.Open.Rejected)
				}
			}
			t.Fatalf("node %d post-promotion OOD rejection rate %.2f vs pre %.2f", i, postRate, preRate)
		}
		novel := 0
		for _, id := range oodC {
			if pred, ok := c.Member(i).Core.Prediction(id); ok && pred.Class == fwClasses {
				novel++
			}
		}
		if novel < len(oodC)*3/4 {
			t.Fatalf("node %d: only %d/%d OOD jobs classified as the novel class", i, novel, len(oodC))
		}
	}

	// The manager reset against the new generation on node 0.
	if st := mgr.Status(); st.Phase != adapt.PhaseBuffer || st.Promotions != 1 {
		t.Fatalf("after cluster promotion: %+v", st)
	}
}
