package telemetry

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/mat"
)

// goldenWindowHash is the FNV-64a of the float64 bits of every value in
// goldenWindows, in order. It was computed before the per-window stream
// table, the exact remainder and the cached stall blocks went in, so it
// holds the simulator's output to the bits it had before them. Change it
// only with a change that means to move the simulated telemetry, and
// regenerate RESULTS.md and the goldens that depend on it in the same
// change.
const goldenWindowHash = 0xd189510ede28d8c6

// goldenWindows visits a fixed set of windows: for every job of the seed-1,
// scale-0.02 population and the eight UnknownJobs archetypes, on its first
// and last GPU, a window from t=0 (startup), one straddling the end of the
// first epoch (train, validation, checkpoint) and one in the middle of the
// job, each 540 samples or as many as the job holds; and each job's
// node-0 CPU series, which reads the stall schedule through one stall cursor.
func goldenWindows(t testing.TB, visit func(j *Job, gpu int, t0 float64, w *mat.Matrix)) {
	sim, err := NewSimulator(Config{Seed: 1, Scale: 0.02, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := append(append([]*Job{}, sim.Jobs()...), UnknownJobs(8, 1)...)
	for _, j := range jobs {
		gpus := []int{0}
		if j.NumGPUs > 1 {
			gpus = append(gpus, j.NumGPUs-1)
		}
		for _, gpu := range gpus {
			n := int(j.Duration / GPUSampleDT)
			if n > 540 {
				n = 540
			}
			span := float64(n) * GPUSampleDT
			p := j.prof
			epochEnd := j.Startup + p.EpochTime - p.EpochTime*p.ValFrac - math.Min(p.CkptTime, p.EpochTime*0.1) - 10
			for _, t0 := range []float64{0, epochEnd, (j.Duration - span) / 2} {
				if t0 < 0 || t0+span > j.Duration {
					continue
				}
				w, err := j.GPUWindow(gpu, t0, n)
				if err != nil {
					t.Fatalf("job %d gpu %d t0 %v: %v", j.ID, gpu, t0, err)
				}
				visit(j, gpu, t0, w)
			}
		}
		cs, err := j.CPUSeries(0)
		if err != nil {
			t.Fatal(err)
		}
		visit(j, -1, 0, cs)
	}
}

// TestGPUWindowGolden pins the simulated telemetry bit for bit across
// versions, and checks that the window set reaches every lifecycle phase,
// stalls, a multi-node job, the most stall-prone class and the unknown
// archetypes, so the constant covers every branch of gpuSample.
func TestGPUWindowGolden(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	var phases [4]int
	var stalls, multiNode, unknown, values int
	maxRate, stallClass := 0.0, Class(0)
	for _, c := range AllClasses() {
		if r := ProfileFor(c).StallRate; r > maxRate {
			maxRate, stallClass = r, c
		}
	}
	sawStallClass := false
	goldenWindows(t, func(j *Job, gpu int, t0 float64, w *mat.Matrix) {
		for _, v := range w.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		values += len(w.Data)
		if gpu < 0 {
			return
		}
		start := int64(math.Round(t0 / GPUSampleDT))
		for i := 0; i < w.Rows; i++ {
			ts := float64(start+int64(i)) * GPUSampleDT
			ph, _ := j.phaseAt(ts)
			phases[ph]++
			if ph == phaseTrain && j.inStall(gpu, ts) {
				stalls++
			}
		}
		if j.NumNodes > 1 {
			multiNode++
		}
		if j.Class == ClassUnknown {
			unknown++
		}
		if j.Class == stallClass {
			sawStallClass = true
		}
	})
	for ph, n := range phases {
		if n == 0 {
			t.Errorf("no window sample in phase %d", ph)
		}
	}
	if stalls == 0 || multiNode == 0 || unknown == 0 || !sawStallClass {
		t.Errorf("coverage: %d stalled samples, %d multi-node windows, %d unknown windows, stall-heavy class %s seen %v",
			stalls, multiNode, unknown, stallClass, sawStallClass)
	}
	t.Logf("%d values; phase samples %v; %d stalled", values, phases, stalls)
	if got := h.Sum64(); got != goldenWindowHash {
		t.Errorf("window hash %#016x, want %#016x", got, uint64(goldenWindowHash))
	}
}
