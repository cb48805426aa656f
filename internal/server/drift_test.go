package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/servetest"
)

// TestDriftEndpointAndPredictionFields drives a drift-enabled server and
// checks the whole read surface: /v1/drift reports PSI state, predictions
// carry the open-set block, the snapshot carries the unknown verdict, and
// /metrics exports the new series.
func TestDriftEndpointAndPredictionFields(t *testing.T) {
	s, _, ts := newTestServer(t, func(c *fleet.Config) { c.Drift = servetest.Calibration(t, 61, 400) }, nil)

	// Enough samples that the drift histograms' one-in-eight pick bins some.
	const sent = 16*servetest.Window + 1
	var body strings.Builder
	for _, sm := range servetest.JobSamples(3, sent) {
		body.WriteString(sampleLine(3, sm) + "\n")
	}
	resp, ir := postNDJSON(t, ts.URL, body.String())
	if resp.StatusCode != http.StatusOK || ir.Accepted != sent {
		t.Fatalf("ingest: status %d, accepted %d", resp.StatusCode, ir.Accepted)
	}
	if err := s.runTick(0); err != nil {
		t.Fatal(err)
	}

	// Prediction carries the open-set fields, and none of the retired
	// probability scores.
	var pr map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/jobs/3/prediction", &pr)
	for _, key := range []string{"feature_distance", "unknown"} {
		if _, ok := pr[key]; !ok {
			t.Fatalf("prediction lacks %q: %s", key, pr)
		}
	}
	for _, key := range []string{"confidence", "margin", "energy"} {
		if _, ok := pr[key]; ok {
			t.Fatalf("prediction carries the retired %q: %s", key, pr)
		}
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
	if want := servetest.DriftBinned(3, sent); want == 0 || dr.Samples != want {
		t.Fatalf("/v1/drift binned %d samples, want %d", dr.Samples, want)
	}
	if len(dr.SensorPSI) != servetest.Sensors {
		t.Fatalf("/v1/drift PSI over %d sensors, want %d", len(dr.SensorPSI), servetest.Sensors)
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

// TestRetiredTemperatureSlotNeverReachesAResponse: the drift section's first
// slot once held the energy temperature, and a NaN, infinite, huge or tiny
// one made every prediction body unencodable. The slot is now read and
// discarded, so a section holding any of those decodes, and a server built
// on it answers a scored job's prediction read with a finite, parseable body.
func TestRetiredTemperatureSlotNeverReachesAResponse(t *testing.T) {
	var enc bytes.Buffer
	if err := servetest.Calibration(t, 61, 400).Encode(&enc); err != nil {
		t.Fatal(err)
	}
	for _, temp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, 1e-300} {
		t.Run(fmt.Sprint(temp), func(t *testing.T) {
			raw := append([]byte(nil), enc.Bytes()...)
			binary.LittleEndian.PutUint64(raw[4:12], math.Float64bits(temp)) // after the u32 version
			cal, err := drift.Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			s, _, ts := newTestServer(t, func(fc *fleet.Config) { fc.Drift = cal }, func(c *Config) { c.ClassNames = nil })
			var body strings.Builder
			for _, sm := range servetest.JobSamples(3, servetest.Window+1) {
				body.WriteString(sampleLine(3, sm) + "\n")
			}
			postNDJSON(t, ts.URL, body.String())
			if err := s.runTick(0); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/3/prediction")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var pr struct {
				Probability *float64 `json:"probability"`
				FeatureDist *float64 `json:"feature_distance"`
				Unknown     *bool    `json:"unknown"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(got, &pr) != nil {
				t.Fatalf("status %d, body %q", resp.StatusCode, got)
			}
			if pr.Probability == nil || pr.FeatureDist == nil || pr.Unknown == nil {
				t.Fatalf("prediction %s", got)
			}
		})
	}
}

// TestDriftEndpointDisabled pins the disabled shape: enabled=false, no PSI
// series in /metrics, no open-set fields on predictions.
func TestDriftEndpointDisabled(t *testing.T) {
	s, _, ts := newTestServer(t, nil, nil)

	var body strings.Builder
	for _, sm := range servetest.JobSamples(5, servetest.Window) {
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
		FeatureDist *float64 `json:"feature_distance"`
		Unknown     *bool    `json:"unknown"`
	}
	getJSON(t, ts.URL+"/v1/jobs/5/prediction", &pr)
	if pr.FeatureDist != nil || pr.Unknown != nil {
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
