package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestRunValidatesBeforeTraining drives bad flag combinations through run.
// Every row leaves scale at 0 and, where it names a model, points at a path
// that does not exist — so if run reached the trainer or the loader before
// validate, the simulator's scale error or a file error would surface
// instead of the flag error the row expects.
func TestRunValidatesBeforeTraining(t *testing.T) {
	const missing = "testdata/does-not-exist.wcc"
	cases := []struct {
		name string
		c    config
		want string
	}{
		{"cluster without model", config{cluster: "http://a,http://b"}, "-cluster needs -model"},
		{"node past the list", config{cluster: "http://a,http://b", node: 2, model: missing}, "-node 2 out of range for the 2 nodes"},
		{"negative node", config{cluster: "http://a,http://b", node: -1, model: missing}, "-node -1 out of range"},
		{"adapt without model", config{adapt: true, modelPoll: time.Second}, "-adapt needs -model:"},
		{"adapt without poll", config{adapt: true, model: missing}, "-adapt needs -model-poll > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// syncBuffer is serve's out in tests: written by the serving goroutine,
// read by the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`serving HTTP API on (http://[^ ]+)`)

// boot runs serve on a loopback port of the kernel's choosing and returns
// the base URL it announced, everything it printed, and a stop function
// that cancels it the way a signal would and waits for the drain.
func boot(t *testing.T, c config) (url string, out *syncBuffer, stop func() error) {
	t.Helper()
	c.listen = "127.0.0.1:0"
	c.tick = 5 * time.Millisecond
	c.workers = 2
	out = &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, c, out) }()
	stop = func() error { cancel(); return <-done }
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := servingLine.FindStringSubmatch(out.String()); m != nil {
			return m[1], out, stop
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("serve never announced its listener:\n%s", out.String())
		}
	}
}

func getHealth(t *testing.T, url string) server.HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("/healthz: HTTP %d, %+v", resp.StatusCode, h)
	}
	return h
}

// tinyArtifact trains the facade pipeline at the scale the tests below boot
// at, as the value wccserve would train itself without -model.
func tinyArtifact(t *testing.T) *artifact.Artifact {
	t.Helper()
	ds, err := repro.GenerateDataset("60-middle-1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.TrainRFCov(ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Artifact(ds)
}

// TestServeTrainedAndLoadedBootAlike boots wccserve the two ways generation
// 0 can arrive — trained at startup (no -model) and loaded from a saved
// artifact — and checks both report the same serving shape, each under its
// artifact's class names, and drain on cancellation.
func TestServeTrainedAndLoadedBootAlike(t *testing.T) {
	url, out, stop := boot(t, config{scale: 0.05, seed: 1, trees: 5})
	trained := getHealth(t, url)
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "offline phase: training") || !strings.Contains(out.String(), "drained:") {
		t.Errorf("trained boot printed:\n%s", out.String())
	}
	if trained.Window != 540 || trained.Sensors != int(telemetry.NumGPUSensors) || trained.Shards != runtime.GOMAXPROCS(0) {
		t.Errorf("trained boot serves %dx%d over %d shards", trained.Window, trained.Sensors, trained.Shards)
	}
	if !reflect.DeepEqual(trained.Classes, telemetry.ClassNames()) {
		t.Errorf("trained boot names classes %v", trained.Classes)
	}

	// The saved artifact renames its classes, so the names served can only
	// have come from the file.
	a := tinyArtifact(t)
	a.Meta.ClassNames = append([]string(nil), a.Meta.ClassNames...)
	for i := range a.Meta.ClassNames {
		a.Meta.ClassNames[i] = "saved/" + a.Meta.ClassNames[i]
	}
	path := filepath.Join(t.TempDir(), "m.wcc")
	if err := artifact.Save(path, a); err != nil {
		t.Fatal(err)
	}
	url, out, stop = boot(t, config{model: path, modelPoll: time.Second, shards: 1})
	loaded := getHealth(t, url)
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "loaded forest artifact") || !strings.Contains(out.String(), "drained:") {
		t.Errorf("loaded boot printed:\n%s", out.String())
	}
	if loaded.Window != trained.Window || loaded.Sensors != trained.Sensors {
		t.Errorf("loaded boot serves %dx%d, trained boot %dx%d", loaded.Window, loaded.Sensors, trained.Window, trained.Sensors)
	}
	if !reflect.DeepEqual(loaded.Classes, a.Meta.ClassNames) {
		t.Errorf("loaded boot names classes %v, want the artifact's", loaded.Classes)
	}
	// One shard is the same serving shape, not a separate one.
	if loaded.Shards != 1 || !strings.Contains(string(metrics), `wcc_shard_ticks_total{shard="0"}`) {
		t.Errorf("-shards 1: /healthz shards %d, shard-labelled series present %v",
			loaded.Shards, strings.Contains(string(metrics), `wcc_shard_ticks_total{shard="0"}`))
	}
}

// TestServeAdaptNeedsDriftBeforeListening pins that -adapt over an artifact
// with no drift section is refused before the listener opens.
func TestServeAdaptNeedsDriftBeforeListening(t *testing.T) {
	a := tinyArtifact(t)
	a.Drift = nil
	path := filepath.Join(t.TempDir(), "nodrift.wcc")
	if err := artifact.Save(path, a); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := serve(context.Background(), config{
		model: path, modelPoll: time.Second, adapt: true, listen: "127.0.0.1:0",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "-adapt needs a drift calibration") {
		t.Fatalf("serve = %v, want the missing-calibration refusal", err)
	}
	if servingLine.MatchString(out.String()) {
		t.Fatalf("listener opened before the refusal:\n%s", out.String())
	}
}
