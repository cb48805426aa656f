package core

import (
	"fmt"
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
	// returns the rendered text. logf, when non-nil, receives progress.
	Run func(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (string, error)
}

// tables is the one name → run-and-format registry, in the order "all"
// prints them (the cheap descriptive tables first).
var tables = []Table{
	{[]string{"1"}, func(sim *telemetry.Simulator, _ Preset, _ func(string, ...any)) (string, error) {
		return FormatTable1(RunTable1(sim)), nil
	}},
	{[]string{"2", "3"}, func(*telemetry.Simulator, Preset, func(string, ...any)) (string, error) {
		return FormatTables2And3(), nil
	}},
	{[]string{"4"}, func(sim *telemetry.Simulator, p Preset, _ func(string, ...any)) (string, error) {
		rows, err := RunTable4(sim, p.Seed)
		if err != nil {
			return "", err
		}
		return FormatTable4(rows), nil
	}},
	{[]string{"7", "8", "9"}, func(sim *telemetry.Simulator, _ Preset, _ func(string, ...any)) (string, error) {
		return FormatTables789(RunTables789(sim)), nil
	}},
	{[]string{"5"}, func(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (string, error) {
		res, err := RunTable5(sim, p, logf)
		if err != nil {
			return "", err
		}
		return FormatTable5(res), nil
	}},
	{[]string{"xgb"}, func(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (string, error) {
		res, err := RunXGBoost(sim, p, logf)
		if err != nil {
			return "", err
		}
		return FormatXGB(res), nil
	}},
	{[]string{"6"}, func(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (string, error) {
		res, err := RunTable6(sim, p, logf)
		if err != nil {
			return "", err
		}
		return FormatTable6(res), nil
	}},
	{[]string{"fused"}, func(sim *telemetry.Simulator, p Preset, logf func(string, ...any)) (string, error) {
		res, err := RunFusedImportance(sim, p, logf)
		if err != nil {
			return "", err
		}
		return FormatFused(res), nil
	}},
	{[]string{"ablations"}, func(sim *telemetry.Simulator, p Preset, _ func(string, ...any)) (string, error) {
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

// RenderTable renders an aligned plain-text table with a header rule,
// matching the layout the benchmark harness prints for each paper table.
func RenderTable(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// pct formats an accuracy as the paper prints them (two decimals, percent).
func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }
