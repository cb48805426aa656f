package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestOpenSetVerdictFloor pins what the unknown verdict is worth on the mix
// CI's HTTP smoke drives, without the HTTP. It trains the CI smoke artifact
// (`wcctrain -model rf -trees 12 -scale 0.05 -max-train 400 -max-test 150`)
// through core, replays `wccload -jobs 256 -scale 0.05 -seconds 120
// -unknown-frac 0.2` into one fleet partition, and ticks every 4096 samples.
//
// Two views are scored. Per window: every new prediction a tick publishes,
// which is where a false unknown costs an operator an alert. Final: each
// job's last verdict, which is what wccload reports and CI greps.
func TestOpenSetVerdictFloor(t *testing.T) {
	p := core.Provenance{Dataset: "60-middle-1", Scale: 0.05, Seed: 1, MaxTrain: 400, MaxTest: 150}
	sim, ch, err := p.Regenerate()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := core.CovFeatures(ch)
	if err != nil {
		t.Fatal(err)
	}
	rf := forest.New(forest.Config{NumTrees: 12, Bootstrap: true, Seed: p.Seed})
	fit := func() error { return rf.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)) }
	a, _, err := core.TrainArtifact(p.Metadata(ch.Train.X, "cov", "wcctrain"), fp, rf, fit,
		core.RawSensorSamples(ch.Train.X), drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := server.NewCore(a, 1)
	if err != nil {
		t.Fatal(err)
	}

	// wccload's mix: sources that run past the replay start plus a window,
	// then 20% of 256 fleet jobs replaying out-of-distribution profiles.
	const jobs, start, seconds, tickEvery = 256, 120.0, 120.0, 4096
	windowSec := float64(a.Meta.Window) * telemetry.GPUSampleDT
	var sources []*telemetry.Job
	for _, j := range sim.Jobs() {
		if j.Duration >= start+windowSec+1 {
			sources = append(sources, j)
		}
	}
	mix, err := telemetry.PlanFleetMix(sources, jobs, 0.2, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := telemetry.NewReplay(mix.ReplaySources(), 0, start, start+seconds)
	if err != nil {
		t.Fatal(err)
	}

	// Every window a tick publishes passes the adapt observer's hook once.
	var windows drift.RejectionTally
	total := 0
	m.SetAdaptObserver(observerFunc(func(o fleet.Observation) {
		windows.Add(mix.IsUnknown(o.Job), o.Rejected)
		total++
	}))
	tick := func() {
		t.Helper()
		if _, err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	ingested := 0
	for {
		s, ok := replay.Next()
		if !ok {
			break
		}
		for _, k := range mix.Fanout[s.JobID] {
			if err := m.Ingest(k, s.Values); err != nil {
				t.Fatal(err)
			}
			if ingested++; ingested%tickEvery == 0 {
				tick()
			}
		}
	}
	tick()

	var final drift.RejectionTally
	for k := 0; k < jobs; k++ {
		if pred, ok := m.Prediction(k); ok {
			final.Add(mix.IsUnknown(k), pred.Unknown())
		}
	}
	idWindows := total - windows.ClassifiedUnknown
	falseUnknown := windows.Flagged - windows.TruePos
	falseRate := float64(falseUnknown) / float64(idWindows)
	t.Logf("per window: %d windows; unknown jobs' windows flagged %d/%d (recall %.3f); in-distribution windows flagged %d/%d (false-unknown rate %.3f); precision %.3f",
		total, windows.TruePos, windows.ClassifiedUnknown, windows.Recall(), falseUnknown, idWindows, falseRate, windows.Precision())
	t.Logf("final verdicts: recall %.3f (%d/%d), precision %.3f (%d/%d)",
		final.Recall(), final.TruePos, final.ClassifiedUnknown, final.Precision(), final.TruePos, final.Flagged)

	if final.ClassifiedUnknown != mix.UnknownJobs || idWindows == 0 {
		t.Fatalf("replay classified %d of %d unknown jobs and %d in-distribution windows", final.ClassifiedUnknown, mix.UnknownJobs, idWindows)
	}
	if r := final.Recall(); r < 0.9 {
		t.Errorf("final-verdict recall %.3f, floor 0.9", r)
	}
	if pr := final.Precision(); pr < 0.75 {
		t.Errorf("final-verdict precision %.3f, floor 0.75", pr)
	}
	if falseRate > 0.07 {
		t.Errorf("per-window false-unknown rate %.3f, ceiling 0.07", falseRate)
	}
}

// observerFunc adapts a function to fleet.Observer.
type observerFunc func(fleet.Observation)

func (f observerFunc) ObserveWindow(o fleet.Observation) { f(o) }
