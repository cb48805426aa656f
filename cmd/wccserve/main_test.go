package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunValidatesBeforeTraining drives bad flag combinations through run.
// Every row leaves scale at 0 and, where it names a model, points at a path
// that does not exist — so if run reached the trainer or the loader before
// validate, the simulator's scale error or a file error would surface
// instead of the flag error the row expects.
func TestRunValidatesBeforeTraining(t *testing.T) {
	const missing = "testdata/does-not-exist.wcc"
	cases := []struct {
		name string
		c    config
		want string
	}{
		{"cluster without model", config{cluster: "http://a,http://b"}, "-cluster needs -model"},
		{"node past the list", config{cluster: "http://a,http://b", node: 2, model: missing}, "-node 2 out of range for the 2 nodes"},
		{"negative node", config{cluster: "http://a,http://b", node: -1, model: missing}, "-node -1 out of range"},
		{"adapt without model", config{adapt: true, modelPoll: time.Second}, "-adapt needs -model:"},
		{"adapt without poll", config{adapt: true, model: missing}, "-adapt needs -model-poll > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
