package telemetry

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestClassMetadata(t *testing.T) {
	if NumClasses != 26 {
		t.Fatalf("NumClasses = %d, want 26", NumClasses)
	}
	total := 0
	named := map[string]bool{}
	for _, c := range AllClasses() {
		if c.Name() == "" || named[c.Name()] {
			t.Errorf("class %d has an empty or repeated name %q", c, c.Name())
		}
		named[c.Name()] = true
		if c.JobCount() <= 0 {
			t.Errorf("class %s has job count %d", c, c.JobCount())
		}
		total += c.JobCount()
	}
	if total != TotalJobs {
		t.Errorf("total job count = %d, want %d (paper's 3,430)", total, TotalJobs)
	}
}

func TestFamilyTotalsMatchTableI(t *testing.T) {
	// Family totals from the reconciled Table I (DESIGN.md).
	want := map[Family]int{
		FamilyVGG:         560,
		FamilyInception:   484,
		FamilyResNet:      463,
		FamilyUNet:        1431,
		FamilyBert:        189,
		FamilyDistillBert: 172,
		FamilyDimeNet:     33,
		FamilySchNet:      39,
		FamilyPNA:         27,
		FamilyNNConv:      32,
	}
	for f, w := range want {
		if got := FamilyJobCount(f); got != w {
			t.Errorf("FamilyJobCount(%s) = %d, want %d", f, got, w)
		}
	}
}

func TestFamilyDomains(t *testing.T) {
	if FamilyVGG.Domain() != DomainVision || FamilyBert.Domain() != DomainNLP ||
		FamilySchNet.Domain() != DomainGNN {
		t.Error("family domain mapping wrong")
	}
}

func TestSensorMetadata(t *testing.T) {
	if NumGPUSensors != 7 || NumCPUSensors != 8 {
		t.Fatalf("sensor counts %d/%d", NumGPUSensors, NumCPUSensors)
	}
	if UtilizationGPUPct.String() != "utilization_gpu_pct" {
		t.Errorf("sensor 0 = %q", UtilizationGPUPct.String())
	}
	if PowerDrawW != 6 {
		t.Errorf("power must be sensor 6 per Table III ordering, got %d", PowerDrawW)
	}
	for s := GPUSensor(0); s < NumGPUSensors; s++ {
		if s.Description() == "" {
			t.Errorf("GPU sensor %d has no description", s)
		}
	}
	for s := CPUSensor(0); s < NumCPUSensors; s++ {
		if s.Description() == "" {
			t.Errorf("CPU sensor %d has no description", s)
		}
	}
}

func TestSimulatorJobPopulation(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 1, Scale: 1.0, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sim.Jobs()
	if len(jobs) != TotalJobs {
		t.Fatalf("full scale generated %d jobs, want %d", len(jobs), TotalJobs)
	}
	series := sim.TotalGPUSeries()
	if series < 16000 || series > 21000 {
		t.Errorf("total GPU series = %d, want ≈18k (paper: over 17,000)", series)
	}
	perClass := map[Class]int{}
	for _, j := range jobs {
		perClass[j.Class]++
		if j.NumGPUs < 1 || j.NumGPUs > 16 {
			t.Errorf("job %d has %d GPUs", j.ID, j.NumGPUs)
		}
		if j.NumNodes != (j.NumGPUs+1)/2 {
			t.Errorf("job %d: %d GPUs on %d nodes", j.ID, j.NumGPUs, j.NumNodes)
		}
		if j.Duration < 40 || j.Duration > 86400 {
			t.Errorf("job %d duration %v out of range", j.ID, j.Duration)
		}
	}
	for _, c := range AllClasses() {
		if perClass[c] != c.JobCount() {
			t.Errorf("class %s: %d jobs, want %d", c, perClass[c], c.JobCount())
		}
	}
}

func TestSimulatorScale(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 1, Scale: 0.1, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(sim.Jobs())
	if n < 330 || n > 360 {
		t.Errorf("scale 0.1 gave %d jobs", n)
	}
	// Every class must still be present.
	seen := map[Class]bool{}
	for _, j := range sim.Jobs() {
		seen[j.Class] = true
	}
	if len(seen) != int(NumClasses) {
		t.Errorf("scale 0.1 kept only %d classes", len(seen))
	}
}

func TestSimulatorBadScale(t *testing.T) {
	if _, err := NewSimulator(Config{Scale: 0}); err == nil {
		t.Error("zero scale should fail")
	}
	if _, err := NewSimulator(Config{Scale: 1.5}); err == nil {
		t.Error("scale > 1 should fail")
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.05, GapRate: 1}
	s1, _ := NewSimulator(cfg)
	s2, _ := NewSimulator(cfg)
	j1, j2 := s1.Jobs()[10], s2.Jobs()[10]
	if j1.Seed != j2.Seed || j1.Duration != j2.Duration {
		t.Fatal("job population not deterministic")
	}
	w1, err := j1.GPUWindow(0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := j2.GPUWindow(0, 0, 100)
	if !mat.Equal(w1, w2, 0) {
		t.Error("windows not deterministic")
	}
}

func TestWindowOverlapConsistency(t *testing.T) {
	// Two overlapping windows must agree exactly on utilization, memory and
	// power (pure functions of the sample index). Temperatures integrate
	// from a phase estimate so they may differ slightly; require closeness.
	sim, _ := NewSimulator(Config{Seed: 7, Scale: 0.02, GapRate: 1})
	var job *Job
	for _, j := range sim.Jobs() {
		if j.Duration > 200 {
			job = j
			break
		}
	}
	if job == nil {
		t.Skip("no long job at this scale")
	}
	a, err := job.GPUWindow(0, 90, 180) // samples 810..989
	if err != nil {
		t.Fatal(err)
	}
	b, err := job.GPUWindow(0, 100, 90) // samples 900..989
	if err != nil {
		t.Fatal(err)
	}
	offset := 90 // b starts 10 s = 90 samples into a
	for i := 0; i < 90; i++ {
		for _, s := range []GPUSensor{UtilizationGPUPct, UtilizationMemoryPct, MemoryFreeMiB, MemoryUsedMiB, PowerDrawW} {
			if a.At(offset+i, int(s)) != b.At(i, int(s)) {
				t.Fatalf("sensor %v sample %d: %v vs %v", s, i, a.At(offset+i, int(s)), b.At(i, int(s)))
			}
		}
		for _, s := range []GPUSensor{TemperatureGPU, TemperatureMemory} {
			if math.Abs(a.At(offset+i, int(s))-b.At(i, int(s))) > 6 {
				t.Fatalf("temperature sensor %v sample %d: %v vs %v", s, i, a.At(offset+i, int(s)), b.At(i, int(s)))
			}
		}
	}
}

func TestWindowBounds(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 3, Scale: 0.02, GapRate: 1})
	j := sim.Jobs()[0]
	if _, err := j.GPUWindow(-1, 0, 10); err == nil {
		t.Error("negative GPU index should fail")
	}
	if _, err := j.GPUWindow(j.NumGPUs, 0, 10); err == nil {
		t.Error("GPU index out of range should fail")
	}
	if _, err := j.GPUWindow(0, -5, 10); err == nil {
		t.Error("negative t0 should fail")
	}
	if _, err := j.GPUWindow(0, j.Duration-0.5, 540); err == nil {
		t.Error("window past end should fail")
	}
}

// TestSensorPhysicalRanges property-checks that every sensor stays within
// physical limits across random jobs and window positions.
func TestSensorPhysicalRanges(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 11, Scale: 0.05, GapRate: 1})
	jobs := sim.Jobs()
	f := func(jobIdx, gpuPick uint8, frac float64) bool {
		j := jobs[int(jobIdx)%len(jobs)]
		gpu := int(gpuPick) % j.NumGPUs
		frac = math.Abs(frac)
		frac -= math.Floor(frac)
		maxStart := j.Duration - 60
		if maxStart < 0 {
			return true
		}
		w, err := j.GPUWindow(gpu, frac*maxStart, 540)
		if err != nil {
			return false
		}
		for i := 0; i < w.Rows; i++ {
			row := w.Row(i)
			if row[UtilizationGPUPct] < 0 || row[UtilizationGPUPct] > 100 {
				return false
			}
			if row[UtilizationMemoryPct] < 0 || row[UtilizationMemoryPct] > 100 {
				return false
			}
			if row[MemoryUsedMiB] < 0 || row[MemoryUsedMiB] > GPUMemoryTotalMiB {
				return false
			}
			if math.Abs(row[MemoryFreeMiB]+row[MemoryUsedMiB]-GPUMemoryTotalMiB) > 1.0 {
				return false
			}
			if row[TemperatureGPU] < 15 || row[TemperatureGPU] > 105 {
				return false
			}
			if row[PowerDrawW] < 20 || row[PowerDrawW] > 320 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStartupPhaseIsGeneric(t *testing.T) {
	// Mean |utilization| during the first half of startup must be near zero
	// for every class — that is the mechanism behind the paper's start-window
	// accuracy drop.
	sim, _ := NewSimulator(Config{Seed: 5, Scale: 0.05, GapRate: 1})
	for _, j := range sim.Jobs()[:50] {
		n := int(j.Startup * 0.4 / GPUSampleDT)
		if n < 30 {
			continue
		}
		w, err := j.GPUWindow(0, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		util := mat.Mean(w.Col(int(UtilizationGPUPct)))
		if util > 15 {
			t.Errorf("job %d (%s): startup mean util %v, want near idle", j.ID, j.Class, util)
		}
	}
}

func TestDisableStartup(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 5, Scale: 0.02, DisableStartup: true, GapRate: 1})
	for _, j := range sim.Jobs() {
		if j.Startup != 0 {
			t.Fatalf("job %d has startup %v with DisableStartup", j.ID, j.Startup)
		}
	}
}

func TestTrainingUtilizationSeparatesFamilies(t *testing.T) {
	// Steady-state GPU utilization must be high for VGG and low for NNConv —
	// the coarse class signal.
	sim, _ := NewSimulator(Config{Seed: 9, Scale: 0.3, GapRate: 1})
	var vgg, gnn *Job
	for _, j := range sim.Jobs() {
		if j.Class == VGG16 && j.Duration > 400 && vgg == nil {
			vgg = j
		}
		if j.Class == NNConv && j.Duration > 400 && gnn == nil {
			gnn = j
		}
	}
	if vgg == nil || gnn == nil {
		t.Skip("populations too small at this scale")
	}
	wv, _ := vgg.GPUWindow(0, vgg.Duration/2, 540)
	wg, _ := gnn.GPUWindow(0, gnn.Duration/2, 540)
	mv := mat.Mean(wv.Col(int(UtilizationGPUPct)))
	mg := mat.Mean(wg.Col(int(UtilizationGPUPct)))
	if mv < mg+20 {
		t.Errorf("VGG16 mean util %v should clearly exceed NNConv %v", mv, mg)
	}
}

func TestThermalCoupling(t *testing.T) {
	// GPU temperature must correlate positively with power draw in steady
	// state training.
	sim, _ := NewSimulator(Config{Seed: 13, Scale: 0.05, GapRate: 1})
	var j *Job
	for _, c := range sim.Jobs() {
		if c.Duration > 600 {
			j = c
			break
		}
	}
	if j == nil {
		t.Skip("no long job")
	}
	w, _ := j.GPUWindow(0, 300, 540)
	power := w.Col(int(PowerDrawW))
	temp := w.Col(int(TemperatureGPU))
	meanP, meanT := mat.Mean(power), mat.Mean(temp)
	if meanP > 150 && meanT < 45 {
		t.Errorf("high power %v with low temperature %v: thermal model broken", meanP, meanT)
	}
}

func TestHasGapDeterministic(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 21, Scale: 0.02, GapRate: 1})
	j := sim.Jobs()[0]
	for i := 0; i < 5; i++ {
		if j.HasGap(0, 100, 160) != j.HasGap(0, 100, 160) {
			t.Fatal("HasGap not deterministic")
		}
	}
	if sim.HasGap(j, 0, 100, 160) && sim.Config().GapRate == 0 {
		t.Error("gap with zero rate")
	}
}

func TestGapRateZeroDisables(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 21, Scale: 0.05, GapRate: 0})
	for _, j := range sim.Jobs() {
		if sim.HasGap(j, 0, 0, j.Duration) {
			t.Fatal("GapRate 0 must disable gaps")
		}
	}
}

func TestCPUSeries(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 17, Scale: 0.02, GapRate: 1})
	var j *Job
	for _, c := range sim.Jobs() {
		if c.Duration > 300 {
			j = c
			break
		}
	}
	if j == nil {
		t.Skip("no long job")
	}
	cs, err := j.CPUSeries(0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cols != int(NumCPUSensors) {
		t.Fatalf("CPU series has %d columns", cs.Cols)
	}
	wantLen := int(j.Duration / CPUSampleDT)
	if cs.Rows != wantLen {
		t.Errorf("CPU series length %d, want %d", cs.Rows, wantLen)
	}
	// GPU and CPU series lengths must differ (different sampling rates).
	gpuLen := int(j.Duration / GPUSampleDT)
	if cs.Rows == gpuLen {
		t.Error("CPU and GPU series should have different lengths")
	}
	// Cumulative counters must be non-decreasing.
	for _, sensor := range []CPUSensor{CPUTime, Pages, ReadMB, WriteMB} {
		col := cs.Col(int(sensor))
		for i := 1; i < len(col); i++ {
			if col[i] < col[i-1]-1e-9 {
				t.Errorf("%v decreases at %d: %v -> %v", sensor, i, col[i-1], col[i])
				break
			}
		}
	}
	if _, err := j.CPUSeries(j.NumNodes); err == nil {
		t.Error("node index out of range should fail")
	}
}

func TestSchedulerLog(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 19, Scale: 0.02, GapRate: 1})
	log := sim.SchedulerLog()
	if len(log) != len(sim.Jobs()) {
		t.Fatalf("log has %d entries for %d jobs", len(log), len(sim.Jobs()))
	}
	prevSubmit := -1.0
	for i, e := range log {
		if e.StartSec < e.SubmitSec || e.EndSec < e.StartSec {
			t.Errorf("entry %d has non-causal times: %+v", i, e)
		}
		if e.SubmitSec < prevSubmit {
			t.Errorf("submissions out of order at %d", i)
		}
		prevSubmit = e.SubmitSec
		if e.ModelName == "" || e.UserHash == "" {
			t.Errorf("entry %d missing fields: %+v", i, e)
		}
	}
}

func TestHashRandStatistics(t *testing.T) {
	// hashNormal must be approximately standard normal.
	const n = 20000
	var sum, sumSq float64
	stream := streamSeed(123, 0, 0)
	for i := int64(0); i < n; i++ {
		v := hashNormal(stream, i)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("hashNormal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("hashNormal variance = %v", variance)
	}
}

func TestHashUniformRange(t *testing.T) {
	f := func(stream uint64, idx int64) bool {
		u := hashUniform(stream, idx)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProfileJitterBounds(t *testing.T) {
	// Jitter must preserve physical ranges for every class.
	sim, _ := NewSimulator(Config{Seed: 29, Scale: 0.1, GapRate: 1})
	for _, j := range sim.Jobs() {
		p := j.prof
		if p.Duty < 0.2 || p.Duty > 0.97 {
			t.Errorf("job %d duty %v", j.ID, p.Duty)
		}
		if p.UtilHigh < 5 || p.UtilHigh > 100 {
			t.Errorf("job %d utilHigh %v", j.ID, p.UtilHigh)
		}
		if p.MemBaseMiB+p.MemActMiB+p.MemSawMiB > GPUMemoryTotalMiB {
			t.Errorf("job %d (%s) memory budget exceeds V100: %v", j.ID, j.Class,
				p.MemBaseMiB+p.MemActMiB+p.MemSawMiB)
		}
		if p.StepTime <= 0 || p.EpochTime <= 0 {
			t.Errorf("job %d non-positive times", j.ID)
		}
	}
}
