package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestRunRejectsUnknownTableBeforeSimulating pins that a table name nobody
// registered is an error — also one containing a digit, which used to print
// nothing and exit 0 — and that it is refused before the simulator is built:
// nothing, not even the preset banner, is printed.
func TestRunRejectsUnknownTableBeforeSimulating(t *testing.T) {
	for _, table := range []string{"10", "nope"} {
		var out bytes.Buffer
		err := run(&out, "smoke", table, 0, 0, 0)
		if err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Errorf("-table %s: run = %v, want an unknown-table error", table, err)
		}
		if out.Len() != 0 {
			t.Errorf("-table %s printed before refusing:\n%s", table, out.String())
		}
	}
}

func TestRunPrintsTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "smoke", "1", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# wccbench -preset smoke -table 1\n", "preset smoke:", "### Table I:", "elapsed:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunMetaTables: an unknown preset is refused before the banner prints,
// the descriptive tables render, and Table IV names all seven datasets.
func TestRunMetaTables(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "warp", "1", 0, 0, 0); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("-preset warp: run = %v, want an unknown-preset error", err)
	}
	if out.Len() != 0 {
		t.Errorf("-preset warp printed before refusing:\n%s", out.String())
	}
	for table, want := range map[string]string{"2": "### Table III:", "7": "### Tables VII-IX:"} {
		out.Reset()
		if err := run(&out, "smoke", table, 0, 0, 0); err != nil {
			t.Fatalf("table %s: %v", table, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("table %s output lacks %q:\n%s", table, want, out.String())
		}
	}
	out.Reset()
	if err := run(&out, "smoke", "4", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, spec := range dataset.ChallengeSpecs {
		if !strings.Contains(out.String(), "| "+spec.Name+" |") {
			t.Errorf("table 4 lacks a %s row:\n%s", spec.Name, out.String())
		}
	}
}
