// Command wccbench regenerates the paper's tables from the simulated
// labelled dataset.
//
// Usage:
//
//	wccbench -preset scaled -table all
//	wccbench -preset smoke -table 5
//	wccbench -preset scaled -table ablations -v
//
// Tables: 1, 2 (prints II and III), 4, 5, 6, 7 (prints VII-IX), xgb,
// ablations, all. Serving-plane performance is measured by go run
// ./benchmark (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
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

	if err := run(*preset, *table, *verbose, *rnnEpochs, *rnnMaxTrain, *rnnStride); err != nil {
		fmt.Fprintln(os.Stderr, "wccbench:", err)
		os.Exit(1)
	}
}

func run(presetName, table string, verbose bool, rnnEpochs, rnnMaxTrain, rnnStride int) error {
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

	sim, err := core.NewSimulator(p)
	if err != nil {
		return err
	}
	fmt.Printf("preset %s: %d jobs, %d GPU series (paper: 3,430 jobs, >17k series)\n\n",
		p.Name, len(sim.Jobs()), sim.TotalGPUSeries())

	want := func(name string) bool { return table == "all" || table == name }
	start := time.Now()

	if want("1") {
		fmt.Println(core.FormatTable1(core.RunTable1(sim)))
	}
	if want("2") || table == "3" {
		fmt.Println(core.FormatTables2And3())
	}
	if want("4") {
		rows, err := core.RunTable4(sim, p.Seed)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatTable4(rows))
	}
	if want("7") || table == "8" || table == "9" {
		fmt.Println(core.FormatTables789(core.RunTables789(sim)))
	}
	if want("5") {
		res, err := core.RunTable5(sim, p, logf)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatTable5(res))
	}
	if want("xgb") {
		res, err := core.RunXGBoost(sim, p, logf)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatXGB(res))
	}
	if want("6") {
		res, err := core.RunTable6(sim, p, logf)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatTable6(res))
	}
	if want("fused") {
		res, err := core.RunFusedImportance(sim, p, logf)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatFused(res))
	}
	if want("ablations") {
		sp, err := core.RunStartPhaseAblation(p)
		if err != nil {
			return err
		}
		emb, err := core.RunEmbeddingAblation(sim, p)
		if err != nil {
			return err
		}
		eig, err := core.RunEigensolverAblation(sim, p)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatAblations(sp, emb, eig))
	}

	if !strings.ContainsAny(table, "123456789") && table != "all" && table != "xgb" &&
		table != "fused" && table != "ablations" {
		return fmt.Errorf("unknown table %q", table)
	}
	fmt.Printf("elapsed: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
