package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrinks every load parameter so the whole ladder, both modes
// of all workloads, runs in a few seconds.
var tinySizes = sizes{
	simScale: 0.015, trees: 4,
	steadyJobs: 40, resident: 40, fullDirty: 10, sparse: 80, sparseDirty: 2,
	backfillJobs: 8, backfillBatch: 64, steadyBatch: 16,
	probes: 2, setups: 1,
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile pins the Go catalogue and
// BENCHMARK.json to each other: same workloads, metrics, units, directions
// and bounds, and names the driver will accept.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, catalogue %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, catalogue %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, file, cat []metricDef) {
		if len(file) != len(cat) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the catalogue", len(file), kind, len(cat))
		}
		for i, d := range cat {
			if file[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, file[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s metric %q unit %q: outside the allowed characters", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric name %s is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", f.EndToEnd, endToEnd)
	check("per-layer", f.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny scale in both modes
// and checks the result line: every catalogued metric exactly once with
// its unit, nothing else, and all correctness checks passing.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &runCtx{seed: 3, seconds: 0.2, traced: traced, sz: tinySizes}
			var stdout, stderr bytes.Buffer
			ok := runOne(w, c, "", &stdout, &stderr)
			if !ok {
				t.Fatalf("%s traced=%t failed:\n%s%s", w.Name, traced, stderr.String(), stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s traced=%t: last line is not the result object: %v\n%s", w.Name, traced, err, lines[len(lines)-1])
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.Name, traced, got.Correct, got.Attempted, got.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics emitted, %d catalogued", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s missing or with unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
					continue
				}
				if strings.Count(stdout.String(), "\n"+d.Name+" ") != 1 {
					t.Errorf("%s traced=%t: metric %s is not printed exactly once", w.Name, traced, d.Name)
				}
				if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, *m.Value)
				}
			}
		}
	}
}

// TestStagedPipelineMatchesFacade pins the traced run's step-by-step
// pipeline to repro.GenerateDataset + repro.TrainRFCov: the same accuracy
// and the same first test prediction, so the per-package times it reports
// are times of the same work.
func TestStagedPipelineMatchesFacade(t *testing.T) {
	a, err := trainModel(5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainModelStaged(5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if a.res.Accuracy != b.res.Accuracy || a.rows() != b.rows() {
		t.Fatalf("facade accuracy %v over %d rows, staged %v over %d", a.res.Accuracy, a.rows(), b.res.Accuracy, b.rows())
	}
	if a.res.Drift.Threshold != b.res.Drift.Threshold {
		t.Errorf("facade drift threshold %+v, staged %+v", a.res.Drift.Threshold, b.res.Drift.Threshold)
	}
}

// TestArgumentErrors covers the command line's refusals.
func TestArgumentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr: %s", args, code, stderr.String())
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
