// Command benchmark is the repository's benchmark: one ladder every change
// to the serving plane reports against.
//
// It generates every input from -seed, drives the unmodified program
// through its public entry points (repro.*, server.Handler, shard.Core,
// fleet.Monitor, stream.WindowedEmbedder, wire, drift.Calibration), checks
// that outputs are correct, and prints every metric by name and unit. Its
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":1000,"failed":0,"metrics":{"latency_p50_ms":{"value":7.1,"unit":"ms"},...}}
//
// End-to-end metrics come from a run with tracing off (-trace 0); per-layer
// metrics come from a separate traced run of the same workload (-trace 1),
// whose spans are recorded by benchmark-owned wrappers at interfaces the
// program already exposes. BENCHMARK.json at the repository root names the
// workloads, metrics, units, directions and bounds; README.md in this
// directory says why each exists and how they interact.
//
// Usage:
//
//	go run ./benchmark                                    # every workload, untraced then traced
//	go run ./benchmark -workload tick-full -seed 2 -trace 0
//	go run ./benchmark -workload steady-http -trace 1 -trace-out spans.ndjson
//	go run ./benchmark -repeat 10                          # two sets of ten runs; fails if they disagree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// problems lists every correctness check that did not hold; the run is
	// correct only when it is empty.
	problems []string
	// notes are printed as "# ..." lines above the metrics: context a
	// reader needs to judge the run (steal time, generator lateness).
	notes []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "every input derives from this seed")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed window")
	traceMode := fs.String("trace", "both", "0: tracing off, print end-to-end metrics; 1: traced run, print per-layer metrics; both")
	traceOut := fs.String("trace-out", "", "with a traced run: write the recorded spans here, one JSON object per line")
	repeat := fs.Int("repeat", 0, "run each workload this many times, twice over; print median and quartiles per end-to-end metric and fail if the two sets disagree by more than a bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	var modes []bool
	switch *traceMode {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q is not 0, 1 or both\n", *traceMode)
		return 2
	}

	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if *repeat > 0 {
		return runRepeat(selected, *repeat, *seed, *seconds, stdout, stderr)
	}
	code := 0
	for _, w := range selected {
		for _, traced := range modes {
			c := &runCtx{seed: *seed, seconds: *seconds, traced: traced, sz: fullSizes}
			if !runOne(w, c, *traceOut, stdout, stderr) {
				code = 1
			}
		}
	}
	return code
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// runOne runs one workload once and prints its metrics, then the JSON
// result line. It reports whether the run was correct.
func runOne(w workloadDef, c *runCtx, traceOut string, stdout, stderr io.Writer) bool {
	if c.traced {
		c.rec = newRecorder()
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%t\n", w.Name, c.seed, c.seconds, c.traced)
	res, err := w.run(c)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return false
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
		if c.rec.dropped > 0 {
			fmt.Fprintf(stdout, "# %d spans past the recorder cap were not recorded\n", c.rec.dropped)
		}
		if traceOut != "" {
			if err := c.rec.writeTo(traceOut); err != nil {
				fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
				return false
			}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	line, err := render(defs, res, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return false
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", w.Name, p)
	}
	fmt.Fprintln(stdout, line)
	return len(res.problems) == 0
}

// render prints one "name value unit" line per metric and returns the JSON
// result object. A workload that emits a metric the catalogue does not
// name, or omits one it does, is a harness bug and an error.
func render(defs []metricDef, res *result, stdout io.Writer) (string, error) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if len(res.metrics) != len(defs) {
		var extra []string
		for name := range res.metrics {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("metrics measured but not in the catalogue: %s", strings.Join(extra, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}
