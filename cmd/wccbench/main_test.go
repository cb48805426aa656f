package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsUnknownTableBeforeSimulating pins that a table name nobody
// registered is an error — also one containing a digit, which used to print
// nothing and exit 0 — and that it is refused before the simulator is built:
// nothing, not even the preset banner, is printed.
func TestRunRejectsUnknownTableBeforeSimulating(t *testing.T) {
	for _, table := range []string{"10", "nope"} {
		var out bytes.Buffer
		err := run(&out, "smoke", table, false, 0, 0, 0)
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
	if err := run(&out, "smoke", "1", false, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"preset smoke:", "Table I:", "elapsed:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
