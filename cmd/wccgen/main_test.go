package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/npz"
)

// TestRunWritesChallengeArchives: run creates the output directory, writes
// one .npz per requested dataset in the challenge's six-member layout with
// the trial counts it prints, and the scheduler log beside them.
func TestRunWritesChallengeArchives(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data")
	var buf bytes.Buffer
	if err := run(&buf, 0.02, 1, out, "60-middle-1, 60-start-1", true); err != nil {
		t.Fatal(err)
	}
	var jobs, series int
	if _, err := fmt.Sscanf(buf.String(), "generated %d jobs, %d GPU series\n", &jobs, &series); err != nil || jobs == 0 || series < jobs {
		t.Fatalf("banner: %d jobs, %d series, %v:\n%s", jobs, series, err, buf.String())
	}
	for _, name := range []string{"60-middle-1", "60-start-1"} {
		path := filepath.Join(out, name+".npz")
		ar, err := npz.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []string{"train", "test"} {
			x, _ := ar.Get("X_" + set)
			y, _ := ar.Get("y_" + set)
			names, _ := ar.Get("model_" + set)
			if x == nil || y == nil || names == nil {
				t.Fatalf("%s lacks a %s member (has %v)", path, set, ar.Names())
			}
			n := x.Shape[0]
			if n == 0 || !reflect.DeepEqual(x.Shape, []int{n, 540, 7}) || !reflect.DeepEqual(y.Shape, []int{n}) || len(names.Strings) != n {
				t.Errorf("%s %s: X %v, y %v, %d model names", name, set, x.Shape, y.Shape, len(names.Strings))
			}
			if want := fmt.Sprintf("%s=%d ", set, n); !strings.Contains(lineWith(buf.String(), name), want) {
				t.Errorf("%s: no %q in its line of\n%s", name, want, buf.String())
			}
		}
	}
	log, err := os.ReadFile(filepath.Join(out, "scheduler_log.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(log), "\n"); rows != jobs+1 || !strings.HasPrefix(string(log), "job_id,user,partition,model,") {
		t.Errorf("scheduler log has %d lines for %d jobs, starting %.40q", rows, jobs, log)
	}
}

// lineWith returns the first line of out that starts with prefix.
func lineWith(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestRunRefusesUnknownDatasetFirst: a misspelt -datasets entry is refused
// before anything is simulated (scale 0 would be the simulator's error) and
// before the output directory is created.
func TestRunRefusesUnknownDatasetFirst(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data")
	var buf bytes.Buffer
	err := run(&buf, 0, 1, out, "60-middle-1,60-nowhere", true)
	if err == nil || !strings.Contains(err.Error(), `unknown dataset "60-nowhere"`) {
		t.Errorf("run = %v, want the unknown dataset refused", err)
	}
	if buf.Len() != 0 {
		t.Errorf("printed before refusing:\n%s", buf.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output directory was created (stat: %v)", err)
	}
}
