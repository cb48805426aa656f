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

// TestRunValidatesBeforeTraining drives bad flag combinations through
// serve. Every row that names a model points at a path that does not exist,
// so if serve reached the loader before validate, a file error would
// surface instead of the flag error the row expects; and no row may get as
// far as opening its listener.
func TestRunValidatesBeforeTraining(t *testing.T) {
	const missing = "testdata/does-not-exist.wcc"
	cases := []struct {
		name string
		c    config
		want string
	}{
		{"no model", config{}, "-model is required: write an artifact with wcctrain -o"},
		{"cluster without model", config{cluster: "http://a,http://b"}, "-model is required"},
		{"node past the list", config{cluster: "http://a,http://b", node: 2, model: missing}, "-node 2 out of range for the 2 nodes"},
		{"negative node", config{cluster: "http://a,http://b", node: -1, model: missing}, "-node -1 out of range"},
		{"adapt without model", config{adapt: true, modelPoll: time.Second}, "-model is required"},
		{"adapt without poll", config{adapt: true, model: missing}, "-adapt needs -model-poll > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.c.listen = "127.0.0.1:0"
			var out bytes.Buffer
			err := serve(context.Background(), tc.c, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("serve = %v, want an error containing %q", err, tc.want)
			}
			if servingLine.MatchString(out.String()) {
				t.Fatalf("listener opened before the refusal:\n%s", out.String())
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

// tinyArtifact trains the facade pipeline at a small scale into the value
// wcctrain -o would write for wccserve to load.
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

// TestServeLoadedBoot boots wccserve from a saved artifact twice: at the
// default shard count, which NewCore sizes to GOMAXPROCS, and at -shards 1,
// which is the same serving shape rather than a separate one. Both serve
// the artifact's class names and drain on cancellation.
func TestServeLoadedBoot(t *testing.T) {
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

	for _, shards := range []int{0, 1} {
		url, out, stop := boot(t, config{model: path, modelPoll: time.Second, shards: shards})
		h := getHealth(t, url)
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
			t.Fatalf("-shards %d: drain: %v", shards, err)
		}
		if !strings.Contains(out.String(), "loaded forest artifact") || !strings.Contains(out.String(), "drained:") {
			t.Errorf("-shards %d: boot printed:\n%s", shards, out.String())
		}
		if h.Window != 540 || h.Sensors != int(telemetry.NumGPUSensors) {
			t.Errorf("-shards %d: serves %dx%d windows", shards, h.Window, h.Sensors)
		}
		if !reflect.DeepEqual(h.Classes, a.Meta.ClassNames) {
			t.Errorf("-shards %d: names classes %v, want the artifact's", shards, h.Classes)
		}
		want := shards
		if shards == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		series := strings.Contains(string(metrics), `wcc_shard_ticks_total{shard="0"}`)
		if h.Shards != want || !series {
			t.Errorf("-shards %d: /healthz shards %d (want %d), shard-labelled series present %v",
				shards, h.Shards, want, series)
		}
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
