package cluster_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/cluster/clustertest"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/servetest"
)

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
			Window:     servetest.Window, Sensors: servetest.Sensors, Seed: 3,
		},
		Trees: 30,
		// The held-out set carries only a handful of family rows, and they
		// dominate the distance tail; the default 0.95 quantile would cut
		// into the family region itself.
		Quantile: 0.99,
	})
}

// TestClusterFlywheelPromotion runs the full continual-learning loop
// against a live 3-node cluster: OOD traffic rejected and buffered on one
// node, a candidate trained and shadow-scored there, then promoted through
// the cluster's replicate→prepare→commit swap — after which every node
// serves the widened class set at the same generation (no torn
// generation), and the OOD family's unknown rate collapses fleet-wide.
func TestClusterFlywheelPromotion(t *testing.T) {
	scaler, model, cal, fp, raw := servetest.Flywheel(t)
	c := clustertest.Start(t, clustertest.Options{
		Nodes: 3, Window: servetest.Window, Sensors: servetest.Sensors,
		Scaler: scaler, Model: model, Drift: cal,
	})

	// The flywheel watches node 0; promotion rolls the whole cluster.
	dir := t.TempDir()
	candPath := filepath.Join(dir, "candidate.wcc")
	mgr, err := adapt.New(adapt.Config{
		FeatureDim:       preprocess.CovarianceDim(servetest.Sensors),
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
	node0 := c.Member(0).Core
	node0.SetAdaptObserver(mgr)

	// Phase A on node 0: the OOD family is rejected and buffered. Support
	// matters: the candidate's feature gate is calibrated from held-out
	// family rows, so the buffer must sample the family densely enough
	// that its distance scale is represented.
	oodA := servetest.Phase(t, node0.Ingest, node0.Tick, 0, 40, 60)
	preRate := servetest.RejectedRate(t, node0.Prediction, oodA)
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
	servetest.Phase(t, node0.Ingest, node0.Tick, 1000, 40, 30)
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
		node := c.Member(i).Core
		oodC := servetest.Phase(t, node.Ingest, node.Tick, 2000+500*i, 10, 20)
		postRate := servetest.RejectedRate(t, node.Prediction, oodC)
		if postRate > 0.2*preRate {
			for _, id := range oodC {
				if pred, ok := node.Prediction(id); ok && pred.Open != nil {
					t.Logf("job %d class %d prob %.3f featdist %.3f rejected %v",
						id, pred.Class, pred.Probability, pred.Open.FeatDist, pred.Open.Rejected)
				}
			}
			t.Fatalf("node %d post-promotion OOD rejection rate %.2f vs pre %.2f", i, postRate, preRate)
		}
		novel := 0
		for _, id := range oodC {
			if pred, ok := node.Prediction(id); ok && pred.Class == servetest.Classes {
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
