package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/telemetry"
)

// Table is one regenerable paper table (or companion experiment): the names
// that select it and the run that renders its text.
type Table struct {
	// names are what selects the table; the first is canonical, the rest are
	// aliases for tables printed together with it (II with III, VII-IX).
	names []string
	// Run regenerates the table over the simulated labelled dataset and
	// returns the rendered text.
	Run func(sim *telemetry.Simulator, p Preset) (string, error)
}

// tables is the one name → run-and-format registry, in the order "all"
// prints them (the cheap descriptive tables first).
var tables = []Table{
	{[]string{"1"}, func(sim *telemetry.Simulator, _ Preset) (string, error) {
		return FormatTable1(RunTable1(sim)), nil
	}},
	{[]string{"2", "3"}, func(*telemetry.Simulator, Preset) (string, error) {
		return FormatTables2And3(), nil
	}},
	{[]string{"4"}, func(sim *telemetry.Simulator, p Preset) (string, error) {
		rows, err := RunTable4(sim, p.Seed)
		if err != nil {
			return "", err
		}
		return FormatTable4(rows), nil
	}},
	{[]string{"7", "8", "9"}, func(sim *telemetry.Simulator, _ Preset) (string, error) {
		return FormatTables789(RunTables789(sim)), nil
	}},
	{[]string{"5"}, rendered(RunTable5, FormatTable5)},
	{[]string{"xgb"}, rendered(RunXGBoost, FormatXGB)},
	{[]string{"6"}, rendered(RunTable6, FormatTable6)},
	{[]string{"fused"}, rendered(RunFusedImportance, FormatFused)},
	{[]string{"ablations"}, func(sim *telemetry.Simulator, p Preset) (string, error) {
		sp, err := RunStartPhaseAblation(p)
		if err != nil {
			return "", err
		}
		emb, err := RunEmbeddingAblation(sim, p)
		if err != nil {
			return "", err
		}
		eig, err := RunEigensolverAblation(sim, p)
		if err != nil {
			return "", err
		}
		return FormatAblations(sp, emb, eig), nil
	}},
}

// rendered is the Run of an experiment that needs only the simulator and
// the preset: run it, then format its result.
func rendered[R any](run func(*telemetry.Simulator, Preset) (R, error), format func(R) string) func(*telemetry.Simulator, Preset) (string, error) {
	return func(sim *telemetry.Simulator, p Preset) (string, error) {
		res, err := run(sim, p)
		if err != nil {
			return "", err
		}
		return format(res), nil
	}
}

// Tables resolves a table name to the tables it selects, in print order:
// the one table carrying the name, or every table for "all". An unknown
// name is an error, so callers can refuse it before simulating anything.
func Tables(name string) ([]Table, error) {
	if name == "all" {
		return tables, nil
	}
	var known []string
	for _, t := range tables {
		for _, n := range t.names {
			if n == name {
				return []Table{t}, nil
			}
		}
		known = append(known, t.names[0])
	}
	return nil, fmt.Errorf("core: unknown table %q (want %s or all)", name, strings.Join(known, ", "))
}

// RenderTable renders a GitHub pipe table under a "###" heading. Cells are
// not padded, so a row's bytes depend on its own cells only.
func RenderTable(title string, headers []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	writeRow := func(cells []string) {
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	writeRow(headers)
	b.WriteString(strings.Repeat("|---", len(headers)) + "|\n")
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// pct formats an accuracy as the paper prints them (two decimals, percent).
func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }

// againstPaper is one reproduced accuracy next to the published one.
type againstPaper struct {
	dataset, model string
	paper, ours    float64 // percent, and a fraction
}

// renderAgainstPaper renders reproduced accuracies one row per cell:
// dataset | model | paper | ours | Δ pp. Δ is taken between the two printed
// values, in hundredths, so it is exactly ours − paper as a reader sees them.
func renderAgainstPaper(title string, cells []againstPaper) string {
	rows := make([][]string, len(cells))
	for i, c := range cells {
		ours, paper := math.Round(c.ours*1e4), math.Round(c.paper*100)
		rows[i] = []string{c.dataset, c.model, fmt.Sprintf("%.2f", paper/100),
			fmt.Sprintf("%.2f", ours/100), fmt.Sprintf("%+.2f", (ours-paper)/100)}
	}
	return RenderTable(title, []string{"dataset", "model", "paper", "ours", "Δ pp"}, rows)
}
