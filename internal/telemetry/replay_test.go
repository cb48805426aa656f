package telemetry

import (
	"testing"
)

func TestReplayInterleavesJobsInTimeOrder(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 1, Scale: 0.01, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sim.Jobs()[:5]
	const horizon = 10.0
	r, err := NewReplay(jobs, 0, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumJobs() == 0 || r.NumJobs() > 5 {
		t.Fatalf("replay holds %d jobs", r.NumJobs())
	}

	total := r.left
	lastTick := map[int]int{}
	emitted := 0
	curTick := 0
	for {
		s, ok := r.Next()
		if !ok {
			break
		}
		emitted++
		if s.Tick < curTick {
			t.Fatalf("tick went backwards: %d after %d", s.Tick, curTick)
		}
		curTick = s.Tick
		if prev, seen := lastTick[s.JobID]; seen && s.Tick != prev+1 {
			t.Fatalf("job %d jumped from tick %d to %d", s.JobID, prev, s.Tick)
		}
		lastTick[s.JobID] = s.Tick
		if len(s.Values) != int(NumGPUSensors) {
			t.Fatalf("sample has %d sensors", len(s.Values))
		}
	}
	if emitted != total {
		t.Fatalf("emitted %d samples, total says %d", emitted, total)
	}
	if r.left != 0 {
		t.Fatalf("%d samples remaining after exhaustion", r.left)
	}
	// Every replayed job produced a contiguous 0..n-1 tick range.
	for id, last := range lastTick {
		if last < 0 {
			t.Fatalf("job %d ended at tick %d", id, last)
		}
	}
}

// TestReplayMatchesGPUWindow pins that the replayed samples are exactly the
// rows GPUWindow materialises: a fleet fed by replay sees the same telemetry
// an offline window extraction would.
func TestReplayMatchesGPUWindow(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 2, Scale: 0.01, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	var job *Job
	for _, j := range sim.Jobs() {
		if j.Duration > 20 {
			job = j
			break
		}
	}
	if job == nil {
		t.Fatal("no job longer than 20s at this scale")
	}
	r, err := NewReplay([]*Job{job}, 0, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	n := r.left
	want, err := job.GPUWindow(0, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s, ok := r.Next()
		if !ok {
			t.Fatalf("stream ended early at %d of %d", i, n)
		}
		if s.JobID != job.ID || s.Tick != i {
			t.Fatalf("sample %d attributed to job %d tick %d", i, s.JobID, s.Tick)
		}
		for c, v := range s.Values {
			if v != want.At(i, c) {
				t.Fatalf("sample %d sensor %d: replay %v vs window %v", i, c, v, want.At(i, c))
			}
		}
	}
}

func TestReplayValidation(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 3, Scale: 0.01, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplay(nil, 0, 0, 60); err == nil {
		t.Error("empty job list should fail")
	}
	if _, err := NewReplay(sim.Jobs()[:1], 0, 0, 0.01); err == nil {
		t.Error("sub-sample horizon should fail")
	}
	// Out-of-range GPU indices clamp rather than fail: replaying a fleet
	// should not abort because one job has fewer GPUs.
	if _, err := NewReplay(sim.Jobs()[:3], 99, 0, 5); err != nil {
		t.Errorf("gpu clamp failed: %v", err)
	}
	if _, err := NewReplay(sim.Jobs()[:3], -1, 0, 5); err != nil {
		t.Errorf("negative gpu clamp failed: %v", err)
	}
}

// TestReplayStartOffset pins that a mid-job replay streams exactly the rows
// GPUWindow materialises from the same start time, and that jobs shorter
// than the start are skipped.
func TestReplayStartOffset(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 4, Scale: 0.01, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	var long *Job
	for _, j := range sim.Jobs() {
		if j.Duration > 80 {
			long = j
			break
		}
	}
	if long == nil {
		t.Fatal("no job longer than 80s at this scale")
	}
	const start, horizon = 50.0, 70.0
	r, err := NewReplay([]*Job{long}, 0, start, horizon)
	if err != nil {
		t.Fatal(err)
	}
	n := r.left
	want, err := long.GPUWindow(0, start, n)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := r.Next()
	if !ok {
		t.Fatal("empty replay")
	}
	for c := range s.Values {
		if s.Values[c] != want.At(0, c) {
			t.Fatalf("sensor %d: replay %v vs window %v", c, s.Values[c], want.At(0, c))
		}
	}
	if _, err := NewReplay([]*Job{long}, 0, -1, 10); err == nil {
		t.Error("negative start should fail")
	}
	if _, err := NewReplay([]*Job{long}, 0, 50, 50); err == nil {
		t.Error("empty span should fail")
	}
	// A population of only sub-start jobs yields an error, not a replay.
	var short []*Job
	for _, j := range sim.Jobs() {
		if j.Duration < 60 {
			short = append(short, j)
		}
	}
	if len(short) > 0 {
		if _, err := NewReplay(short, 0, 86400, 86500); err == nil {
			t.Error("all-too-short population should fail")
		}
	}
}
