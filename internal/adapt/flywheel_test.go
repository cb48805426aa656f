package adapt

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/servetest"
	"repro/internal/stream"
)

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
			Window:     servetest.Window, Sensors: servetest.Sensors, Seed: 3,
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
	scaler, model, cal, fp, raw := servetest.Flywheel(t)

	plain, err := fleet.New(fleet.Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := fleet.New(fleet.Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		FeatureDim:  preprocess.CovarianceDim(servetest.Sensors),
		MinSupport:  10,
		Radius:      12,
		Calibration: cal,
		Trainer:     &fixtureTrainer{fp: fp, raw: raw},
	})
	if err != nil {
		t.Fatal(err)
	}
	observed.SetAdaptObserver(mgr)

	servetest.Phase(t, plain.Ingest, plain.Tick, 0, 40, 24)
	ood := servetest.Phase(t, observed.Ingest, observed.Tick, 0, 40, 24)

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
	servetest.Phase(t, plain.Ingest, plain.Tick, 100, 20, 10)
	servetest.Phase(t, observed.Ingest, observed.Tick, 100, 20, 10)
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
	scaler, model, cal, fp, raw := servetest.Flywheel(t)
	monitor, err := fleet.New(fleet.Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model, Drift: cal})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		FeatureDim:       preprocess.CovarianceDim(servetest.Sensors),
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

	// Phase A: the OOD family shows up and serving rejects it. Support
	// matters: the candidate's feature gate is calibrated from held-out
	// family rows, so the buffer must sample the family densely enough
	// that its distance scale is represented.
	oodA := servetest.Phase(t, monitor.Ingest, monitor.Tick, 0, 40, 60)
	preRate := servetest.RejectedRate(t, monitor.Prediction, oodA)
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
	servetest.Phase(t, monitor.Ingest, monitor.Tick, 100, 40, 30)
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
	oodC := servetest.Phase(t, monitor.Ingest, monitor.Tick, 200, 40, 30)
	postRate := servetest.RejectedRate(t, monitor.Prediction, oodC)
	if postRate > 0.2*preRate {
		t.Fatalf("post-promotion OOD rejection rate %.2f vs pre %.2f: flywheel did not close the gap", postRate, preRate)
	}
	novel := 0
	for _, id := range oodC {
		pred, _ := monitor.Prediction(id)
		if pred != nil && pred.Class == servetest.Classes {
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
