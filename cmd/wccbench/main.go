// Command wccbench regenerates the paper's tables from the simulated
// labelled dataset.
//
// Usage:
//
//	wccbench -preset scaled -table all
//	wccbench -preset smoke -table 5
//	wccbench -preset scaled -table ablations -v
//
// Tables: 1, 2 (prints II and III), 4, 5, 6, 7 (prints VII-IX), xgb, fused,
// ablations, all — the names core.Tables resolves. Serving-plane
// performance is measured by go run ./benchmark (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
)

func main() {
	preset := flag.String("preset", "scaled", "experiment preset: smoke, scaled or full")
	table := flag.String("table", "all", "which table to regenerate: 1, 2, 4, 5, 6, 7, xgb, fused, ablations, all")
	verbose := flag.Bool("v", false, "log per-cell progress")
	rnnEpochs := flag.Int("rnn-epochs", 0, "override the preset's RNN epoch count")
	rnnMaxTrain := flag.Int("rnn-max-train", 0, "override the preset's RNN training-trials cap")
	rnnStride := flag.Int("rnn-stride", 0, "override the preset's RNN sequence stride")
	flag.Parse()

	if err := run(os.Stdout, *preset, *table, *verbose, *rnnEpochs, *rnnMaxTrain, *rnnStride); err != nil {
		fmt.Fprintln(os.Stderr, "wccbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, presetName, table string, verbose bool, rnnEpochs, rnnMaxTrain, rnnStride int) error {
	p, err := core.PresetByName(presetName)
	if err != nil {
		return err
	}
	if rnnEpochs > 0 {
		p.RNN.Epochs = rnnEpochs
	}
	if rnnMaxTrain > 0 {
		p.RNN.MaxTrain = rnnMaxTrain
	}
	if rnnStride > 0 {
		p.RNN.Stride = rnnStride
	}
	var logf func(string, ...any)
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	tables, err := core.Tables(table)
	if err != nil {
		return err
	}

	sim, err := core.NewSimulator(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "preset %s: %d jobs, %d GPU series (paper: 3,430 jobs, >17k series)\n\n",
		p.Name, len(sim.Jobs()), sim.TotalGPUSeries())

	start := time.Now()
	for _, t := range tables {
		out, err := t.Run(sim, p, logf)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	fmt.Fprintf(w, "elapsed: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
