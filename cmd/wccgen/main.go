// Command wccgen generates the simulated MIT Supercloud labelled dataset
// and writes the seven challenge datasets as .npz archives in the exact
// layout the real challenge distributes (X_train, y_train, model_train,
// X_test, y_test, model_test), plus the scheduler log as CSV.
//
// Usage:
//
//	wccgen -scale 0.3 -out ./data
//	wccgen -scale 1.0 -datasets 60-middle-1,60-random-1 -out ./data
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", 0.3, "labelled-dataset scale (1.0 = the paper's 3,430 jobs)")
	seed := flag.Int64("seed", 1, "generation seed")
	out := flag.String("out", "data", "output directory")
	datasets := flag.String("datasets", "all", "comma-separated dataset names, or 'all'")
	schedLog := flag.Bool("schedlog", true, "also write the scheduler log CSV")
	flag.Parse()

	if err := run(os.Stdout, *scale, *seed, *out, *datasets, *schedLog); err != nil {
		fmt.Fprintln(os.Stderr, "wccgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scale float64, seed int64, out, datasets string, schedLog bool) error {
	// Names first: a typo costs neither a simulation nor a directory.
	var specs []dataset.Spec
	if datasets == "all" {
		specs = dataset.ChallengeSpecs
	} else {
		for _, name := range strings.Split(datasets, ",") {
			spec, ok := dataset.SpecByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown dataset %q", name)
			}
			specs = append(specs, spec)
		}
	}
	sim, err := core.Provenance{Scale: scale, Seed: seed}.Simulator()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %d jobs, %d GPU series\n", len(sim.Jobs()), sim.TotalGPUSeries())

	for _, spec := range specs {
		opts := dataset.DefaultBuildOptions()
		opts.Seed = seed
		ch, err := dataset.Build(sim, spec, opts)
		if err != nil {
			return err
		}
		ar, err := ch.ToArchive()
		if err != nil {
			return err
		}
		path := filepath.Join(out, spec.Name+".npz")
		if err := ar.WriteFile(path); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s train=%-6d test=%-5d -> %s (%.1f MB)\n",
			spec.Name, ch.Train.Len(), ch.Test.Len(), path, float64(fi.Size())/1e6)
	}

	if schedLog {
		path := filepath.Join(out, "scheduler_log.csv")
		if err := writeSchedLog(sim, path); err != nil {
			return err
		}
		fmt.Fprintf(w, "scheduler log -> %s\n", path)
	}
	return nil
}

func writeSchedLog(sim *telemetry.Simulator, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"job_id", "user", "partition", "model", "nodes", "gpus", "submit_s", "start_s", "end_s", "exit_code"}); err != nil {
		return err
	}
	for _, e := range sim.SchedulerLog() {
		rec := []string{
			strconv.Itoa(e.JobID), e.UserHash, e.Partition, e.ModelName,
			strconv.Itoa(e.Nodes), strconv.Itoa(e.GPUs),
			fmt.Sprintf("%.1f", e.SubmitSec), fmt.Sprintf("%.1f", e.StartSec),
			fmt.Sprintf("%.1f", e.EndSec), strconv.Itoa(e.ExitCode),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
