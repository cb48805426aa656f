package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/shard"
)

// driftCalibration fits a calibration matched to the server test fixture.
func driftCalibration(t *testing.T, model interface {
	PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error)
}) *drift.Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
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

// newDriftServer is newTestServer over a drift-enabled monitor.
func newDriftServer(t *testing.T) (*Server, *shard.Core, *httptest.Server) {
	t.Helper()
	scaler, model := fixture(t)
	m, err := shard.New(shard.Config{Shards: 1, Window: testWindow, Sensors: testSensors,
		Scaler: scaler, Model: model, Drift: driftCalibration(t, model)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Monitor: m, TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, m, ts
}

// TestDriftEndpointAndPredictionFields drives a drift-enabled server and
// checks the whole read surface: /v1/drift reports PSI state, predictions
// carry the open-set block, the snapshot carries the unknown verdict, and
// /metrics exports the new series.
func TestDriftEndpointAndPredictionFields(t *testing.T) {
	s, _, ts := newDriftServer(t)

	var body strings.Builder
	for _, sm := range jobSamples(3, testWindow+1) {
		body.WriteString(sampleLine(3, sm) + "\n")
	}
	resp, ir := postNDJSON(t, ts.URL, body.String())
	if resp.StatusCode != http.StatusOK || ir.Accepted != testWindow+1 {
		t.Fatalf("ingest: status %d, accepted %d", resp.StatusCode, ir.Accepted)
	}
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	// Prediction carries the open-set fields.
	var pr struct {
		Probability float64   `json:"probability"`
		Confidence  *float64  `json:"confidence"`
		Margin      *float64  `json:"margin"`
		Energy      *float64  `json:"energy"`
		Unknown     *bool     `json:"unknown"`
		Probs       []float64 `json:"probs"`
	}
	getJSON(t, ts.URL+"/v1/jobs/3/prediction", &pr)
	if pr.Confidence == nil || pr.Margin == nil || pr.Energy == nil || pr.Unknown == nil {
		t.Fatalf("open-set fields missing from prediction: %+v", pr)
	}
	if *pr.Confidence != pr.Probability {
		t.Fatalf("confidence %v != probability %v", *pr.Confidence, pr.Probability)
	}
	sc := drift.ScoreProbs(pr.Probs, drift.DefaultTemperature)
	if *pr.Margin != sc.Margin || *pr.Energy != sc.Energy {
		t.Fatalf("served scores (%v, %v) disagree with re-scored (%v, %v)",
			*pr.Margin, *pr.Energy, sc.Margin, sc.Energy)
	}

	// Snapshot rows carry the unknown verdict.
	var snap struct {
		Jobs []struct {
			Job     int   `json:"job"`
			Unknown *bool `json:"unknown"`
		} `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &snap)
	if len(snap.Jobs) != 1 || snap.Jobs[0].Unknown == nil {
		t.Fatalf("snapshot lacks the unknown verdict: %+v", snap)
	}

	// /v1/drift reports the accumulated state.
	var dr driftResponse
	getJSON(t, ts.URL+"/v1/drift", &dr)
	if !dr.Enabled {
		t.Fatal("/v1/drift reports disabled on a drift-enabled fleet")
	}
	if dr.Samples != uint64(testWindow+1) {
		t.Fatalf("/v1/drift binned %d samples, want %d", dr.Samples, testWindow+1)
	}
	if len(dr.SensorPSI) != testSensors {
		t.Fatalf("/v1/drift PSI over %d sensors, want %d", len(dr.SensorPSI), testSensors)
	}

	// /metrics exports the new series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"\nwcc_unknown_total ", "\nwcc_drift_score ", `wcc_drift_sensor_psi{sensor="0"}`} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}
}

// TestDriftEndpointDisabled pins the disabled shape: enabled=false, no PSI
// series in /metrics, no open-set fields on predictions.
func TestDriftEndpointDisabled(t *testing.T) {
	s, _, ts := newTestServer(t, nil)

	var body strings.Builder
	for _, sm := range jobSamples(5, testWindow) {
		body.WriteString(sampleLine(5, sm) + "\n")
	}
	postNDJSON(t, ts.URL, body.String())
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	var dr driftResponse
	getJSON(t, ts.URL+"/v1/drift", &dr)
	if dr.Enabled || dr.Samples != 0 || dr.SensorPSI != nil {
		t.Fatalf("disabled fleet reports drift state: %+v", dr)
	}
	var pr struct {
		Confidence *float64 `json:"confidence"`
		Unknown    *bool    `json:"unknown"`
	}
	getJSON(t, ts.URL+"/v1/jobs/5/prediction", &pr)
	if pr.Confidence != nil || pr.Unknown != nil {
		t.Fatal("open-set fields present with drift disabled")
	}
	// wcc_unknown_total still scrapes (as zero) so dashboards never 404.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wcc_unknown_total 0") {
		t.Fatal("/metrics lacks wcc_unknown_total on a drift-disabled fleet")
	}
	if strings.Contains(sb.String(), "wcc_drift_sensor_psi") {
		t.Fatal("/metrics exports PSI series with drift disabled")
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
