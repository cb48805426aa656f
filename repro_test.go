package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func TestGenerateDatasetErrors(t *testing.T) {
	if _, err := repro.GenerateDataset("60-end-1", 0.05, 1); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := repro.GenerateDataset("60-middle-1", 0, 1); err == nil {
		t.Error("zero scale should fail")
	}
	if _, err := repro.GenerateDataset("60-middle-1", 2, 1); err == nil {
		t.Error("scale > 1 should fail")
	}
}

func TestGenerateAndTrainFacade(t *testing.T) {
	ds, err := repro.GenerateDataset("60-middle-1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Challenge.Train.Len() == 0 || ds.Challenge.Test.Len() == 0 {
		t.Fatal("empty dataset")
	}
	res, err := repro.TrainRFCov(ds, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.25 {
		t.Errorf("facade RF-Cov accuracy %.3f at 5%% scale", res.Accuracy)
	}
	if len(res.ClassNames) != 26 {
		t.Errorf("got %d class names", len(res.ClassNames))
	}
	if res.Confusion == nil || res.Model == nil {
		t.Error("missing result fields")
	}
}

// TestFleetFacade pins the train → serve hand-over: the artifact TrainRFCov's
// result bundles boots a sharded serving core through the one constructor,
// and live telemetry streamed through it classifies. (That sharding never
// changes a prediction bit is internal/fleet's
// TestShardedMatchesSingleMonitor.)
func TestFleetFacade(t *testing.T) {
	ds, err := repro.GenerateDataset("60-middle-1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.TrainRFCov(ds, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := server.NewCore(res.Artifact(ds), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}

	// Stream a handful of live jobs through the fleet via the multi-job
	// replay source and check each gets a well-formed prediction.
	var live []*telemetry.Job
	for _, j := range ds.Sim.Jobs() {
		if j.Duration >= 62 {
			live = append(live, j)
		}
		if len(live) == 4 {
			break
		}
	}
	if len(live) == 0 {
		t.Fatal("no streamable jobs at this scale")
	}
	r, err := telemetry.NewReplay(live, 0, 0, 61.5)
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, ok := r.Next()
		if !ok {
			break
		}
		if err := m.Ingest(s.JobID, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := m.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classified != len(live) {
		t.Fatalf("classified %d jobs, want %d", stats.Classified, len(live))
	}
	for _, j := range live {
		pred, ok := m.Prediction(j.ID)
		if !ok {
			t.Fatalf("job %d: no prediction", j.ID)
		}
		if len(pred.Probs) != len(res.ClassNames) || pred.Class < 0 || pred.Class >= len(res.ClassNames) {
			t.Fatalf("job %d: malformed prediction %+v", j.ID, pred)
		}
	}
}

// TestSaveLoadModelFacade pins the offline-train / online-serve split: a
// model saved with SaveModel and restored with LoadModel must classify live
// windows bit-identically to the in-memory pipeline, without any retraining.
func TestSaveLoadModelFacade(t *testing.T) {
	ds, err := repro.GenerateDataset("60-middle-1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.TrainRFCov(ds, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rf-cov.wcc")
	if err := repro.SaveModel(path, ds, res); err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := loaded.Meta
	if meta.Dataset != "60-middle-1" || meta.Scale != 0.05 || meta.Seed != 1 {
		t.Fatalf("provenance did not survive: %+v", meta)
	}
	if meta.Window != ds.Challenge.Train.X.T || meta.Sensors != ds.Challenge.Train.X.C {
		t.Fatalf("window shape %dx%d", meta.Window, meta.Sensors)
	}
	if meta.Accuracy != res.Accuracy {
		t.Fatalf("accuracy %v, want %v", meta.Accuracy, res.Accuracy)
	}
	if res.Drift == nil {
		t.Fatal("TrainRFCov did not calibrate open-set drift")
	}
	if loaded.Drift == nil {
		t.Fatal("drift calibration did not survive the artifact")
	}
	if loaded.Drift.Threshold != res.Drift.Threshold {
		t.Fatalf("threshold drifted through the artifact: %+v vs %+v",
			loaded.Drift.Threshold, res.Drift.Threshold)
	}

	// Serve identical telemetry through a core from the in-memory artifact
	// and one from the reloaded file; predictions must agree bit for bit.
	mMem, err := server.NewCore(res.Artifact(ds), 1)
	if err != nil {
		t.Fatal(err)
	}
	mArt, err := server.NewCore(loaded, 1)
	if err != nil {
		t.Fatal(err)
	}
	var live []*telemetry.Job
	for _, j := range ds.Sim.Jobs() {
		if j.Duration >= 62 {
			live = append(live, j)
		}
		if len(live) == 3 {
			break
		}
	}
	if len(live) == 0 {
		t.Fatal("no streamable jobs at this scale")
	}
	for _, monitor := range []*fleet.Monitor{mMem, mArt} {
		r, err := telemetry.NewReplay(live, 0, 0, 61.5)
		if err != nil {
			t.Fatal(err)
		}
		for {
			s, ok := r.Next()
			if !ok {
				break
			}
			if err := monitor.Ingest(s.JobID, s.Values); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := monitor.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range live {
		want, ok1 := mMem.Prediction(j.ID)
		got, ok2 := mArt.Prediction(j.ID)
		if !ok1 || !ok2 {
			t.Fatalf("job %d: missing prediction (mem %v, artifact %v)", j.ID, ok1, ok2)
		}
		if got.Class != want.Class || got.Probability != want.Probability {
			t.Fatalf("job %d: artifact fleet (%d, %v) vs in-memory fleet (%d, %v)",
				j.ID, got.Class, got.Probability, want.Class, want.Probability)
		}
		for c := range want.Probs {
			if got.Probs[c] != want.Probs[c] {
				t.Fatalf("job %d class %d: %v vs %v (not bit-identical)", j.ID, c, got.Probs[c], want.Probs[c])
			}
		}
		// Both fleets score open-set, and the artifact path agrees with the
		// in-memory calibration verdict for verdict.
		if want.Open == nil || got.Open == nil {
			t.Fatalf("job %d: missing open-set annotation (mem %v, artifact %v)", j.ID, want.Open, got.Open)
		}
		if *want.Open != *got.Open {
			t.Fatalf("job %d: annotations differ: %+v vs %+v", j.ID, want.Open, got.Open)
		}
	}
	if st := mArt.DriftStats(); !st.Enabled || st.Samples == 0 {
		t.Fatalf("artifact fleet drift stats: %+v", st)
	}

	if _, err := repro.LoadModel(filepath.Join(t.TempDir(), "missing.wcc")); err == nil {
		t.Error("loading a missing artifact should fail")
	}

	// LoadModel refuses what the serving gate refuses, in the gate's words.
	refusals := []struct {
		name   string
		mutate func(a *artifact.Artifact)
		want   string
	}{
		{"pca features", func(a *artifact.Artifact) { a.Meta.Features = "pca" }, `has "pca" features`},
		{"no scaler", func(a *artifact.Artifact) { a.Scaler = nil }, "carries no scaler"},
	}
	for _, tc := range refusals {
		a := res.Artifact(ds)
		tc.mutate(a)
		bad := filepath.Join(t.TempDir(), "bad.wcc")
		if err := artifact.Save(bad, a); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := repro.LoadModel(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadModel = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A file an earlier build wrote for a sequence model names a kind this
	// build has no codec for; it is refused by name, its payload unread.
	sections := []struct {
		name    string
		payload []byte
	}{
		{"meta", []byte(`{"kind":"bilstm","features":"sequence"}`)},
		{"model", []byte("weights")},
	}
	var head, file bytes.Buffer
	hw := wire.NewWriter(&head)
	hw.U32(artifact.FormatVersion)
	hw.U32(uint32(len(sections)))
	for _, sec := range sections {
		hw.String(sec.name)
		hw.U64(uint64(len(sec.payload)))
		hw.U32(crc32.ChecksumIEEE(sec.payload))
	}
	if err := hw.Err(); err != nil {
		t.Fatal(err)
	}
	file.Write(artifact.Magic[:])
	file.Write(head.Bytes())
	wire.NewWriter(&file).U32(crc32.ChecksumIEEE(head.Bytes()))
	for _, sec := range sections {
		file.Write(sec.payload)
	}
	old := filepath.Join(t.TempDir(), "bilstm.wcc")
	if err := os.WriteFile(old, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.LoadModel(old); err == nil || !strings.Contains(err.Error(), `unknown model kind "bilstm"`) {
		t.Errorf("bilstm file: LoadModel = %v, want unknown model kind", err)
	}
}

// TestServeFacadeArtifact pins the public path to HTTP serving: train at
// tiny scale, boot a core from the result's artifact, serve it over a real
// loopback listener, ingest one job's window as batched NDJSON, and read
// the classification back under the artifact's class names.
func TestServeFacadeArtifact(t *testing.T) {
	ds, err := repro.GenerateDataset("60-middle-1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.TrainRFCov(ds, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact(ds)
	m, err := server.NewCore(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Monitor: m, ClassNames: a.Meta.ClassNames, TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var live *telemetry.Job
	for _, j := range ds.Sim.Jobs() {
		if j.Duration >= 62 {
			live = j
			break
		}
	}
	if live == nil {
		t.Fatal("no streamable job at this scale")
	}
	r, err := telemetry.NewReplay([]*telemetry.Job{live}, 0, 0, 61.5)
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	for {
		s, ok := r.Next()
		if !ok {
			break
		}
		line, err := json.Marshal(struct {
			Job    int       `json:"job"`
			Values []float64 `json:"values"`
		}{s.JobID, s.Values})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var acct struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || acct.Rejected != 0 || acct.Accepted == 0 {
		t.Fatalf("ingest: status %d, accounting %+v", resp.StatusCode, acct)
	}

	// Drain flushes the pending window into a prediction...
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%d/prediction", ts.URL, live.ID))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Class     int    `json:"class"`
		ClassName string `json:"class_name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prediction status %d", resp.StatusCode)
	}
	// ...and the served result matches the in-process registry.
	want, ok := m.Prediction(live.ID)
	if !ok || pred.Class != want.Class || pred.ClassName != res.ClassNames[want.Class] {
		t.Fatalf("served prediction %+v vs monitor %+v (ok=%v)", pred, want, ok)
	}
}
