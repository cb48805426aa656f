package telemetry

import (
	"fmt"
	"math"
	"math/rand"
)

// Config controls labelled-dataset generation.
type Config struct {
	// Seed makes the whole dataset reproducible.
	Seed int64

	// Scale multiplies the per-class job counts (1.0 = the paper's 3,430
	// jobs). Every class keeps at least one job, so the 26-way label space
	// is preserved at any scale.
	Scale float64

	// DisableStartup replaces the class-agnostic startup phase with
	// immediate training. This is the ablation for the paper's §IV-A
	// hypothesis that early-job telemetry is generic across classes.
	DisableStartup bool

	// GapRate scales the telemetry-outage probability (1.0 = default).
	// Zero disables gaps entirely.
	GapRate float64
}

// Simulator generates the labelled dataset: jobs, their telemetry and the
// scheduler log.
type Simulator struct {
	cfg  Config
	jobs []*Job
}

// NewSimulator builds the deterministic job population for the config.
func NewSimulator(cfg Config) (*Simulator, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("telemetry: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.Scale > 1.0 {
		return nil, fmt.Errorf("telemetry: scale must be at most 1.0, got %v", cfg.Scale)
	}
	s := &Simulator{cfg: cfg}
	s.generateJobs()
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Jobs returns the generated job population (shared slice; do not modify).
func (s *Simulator) Jobs() []*Job { return s.jobs }

// scaledCount returns the job count for class c under the configured scale.
func (s *Simulator) scaledCount(c Class) int {
	n := int(math.Round(float64(c.JobCount()) * s.cfg.Scale))
	if n < 1 {
		n = 1
	}
	return n
}

// gpuCountDist is the multi-GPU request distribution, calibrated so that
// 3,430 jobs yield ≈18.2k GPU series (the paper's "over 17,000").
var gpuCountDist = []struct {
	gpus int
	p    float64
}{
	{1, 0.22}, {2, 0.25}, {4, 0.20}, {8, 0.18}, {16, 0.15},
}

func drawGPUCount(rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for _, e := range gpuCountDist {
		acc += e.p
		if u < acc {
			return e.gpus
		}
	}
	return gpuCountDist[len(gpuCountDist)-1].gpus
}

// drawDuration draws a job duration in seconds: log-normal with a median of
// about 33 minutes, plus a 10% population of short "debug" runs that create
// the paper's eligibility gap between the start and middle window datasets.
func drawDuration(rng *rand.Rand) float64 {
	if rng.Float64() < 0.10 {
		return 50 + 35*rng.Float64() // debug run: 50-85 s
	}
	d := math.Exp(math.Log(2000) + rng.NormFloat64()*1.1)
	return clamp(d, 40, 86400)
}

func (s *Simulator) generateJobs() {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	id := 0
	for _, c := range AllClasses() {
		count := s.scaledCount(c)
		for k := 0; k < count; k++ {
			seed := rng.Int63()
			jobRNG := rand.New(rand.NewSource(seed))
			prof := ProfileFor(c).jitter(jobRNG)
			gpus := drawGPUCount(jobRNG)
			startup := 15 + 28*jobRNG.Float64() + prof.StartupBias
			if s.cfg.DisableStartup {
				startup = 0
			}
			j := &Job{
				ID:       id,
				Class:    c,
				Seed:     seed,
				NumGPUs:  gpus,
				NumNodes: (gpus + GPUsPerNode - 1) / GPUsPerNode,
				Duration: drawDuration(jobRNG),
				Startup:  startup,
				prof:     prof,
			}
			j.utilOffset = make([]float64, gpus)
			j.tempOffset = make([]float64, gpus)
			j.powOffset = make([]float64, gpus)
			for g := 0; g < gpus; g++ {
				j.utilOffset[g] = jobRNG.NormFloat64() * 1.2
				j.tempOffset[g] = jobRNG.NormFloat64() * 1.5
				j.powOffset[g] = jobRNG.NormFloat64() * 4
			}
			if gpus > 0 {
				j.utilOffset[0] += 1.5 // rank 0 does logging/aggregation
			}
			id++
			s.jobs = append(s.jobs, j)
		}
	}
}

// HasGap applies the configured gap rate on top of the job's deterministic
// gap schedule.
func (s *Simulator) HasGap(j *Job, gpu int, t0, t1 float64) bool {
	if s.cfg.GapRate <= 0 {
		return false
	}
	// GapRate scales probability by thinning: a gap present in the base
	// schedule is kept with probability min(GapRate, 1).
	if !j.HasGap(gpu, t0, t1) {
		return false
	}
	if s.cfg.GapRate >= 1 {
		return true
	}
	keep := hashUniform(streamSeed(j.Seed, gpu, chGap)^0xfeed, int64(t0))
	return keep < s.cfg.GapRate
}

// TotalGPUSeries counts the labelled GPU time series across all jobs.
func (s *Simulator) TotalGPUSeries() int {
	total := 0
	for _, j := range s.jobs {
		total += j.NumGPUSeries()
	}
	return total
}

// SchedEntry is one scheduler-log record, in the spirit of the anonymised
// Slurm log shipped with the full MIT Supercloud dataset.
type SchedEntry struct {
	JobID     int
	UserHash  string
	Partition string
	ModelName string // label — present only in the labelled subset
	Nodes     int
	GPUs      int
	SubmitSec float64
	StartSec  float64
	EndSec    float64
	ExitCode  int
}

// SchedulerLog derives a scheduler log for the job population. Submit and
// start times are synthetic queue arrivals; exit codes mark the ~3% of jobs
// that die (OOM or preemption).
func (s *Simulator) SchedulerLog() []SchedEntry {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5c4ed))
	entries := make([]SchedEntry, 0, len(s.jobs))
	clock := 0.0
	for _, j := range s.jobs {
		clock += rng.ExpFloat64() * 45 // Poisson-ish arrivals
		wait := rng.ExpFloat64() * 120
		exit := 0
		if rng.Float64() < 0.03 {
			exit = 1
		}
		entries = append(entries, SchedEntry{
			JobID:     j.ID,
			UserHash:  fmt.Sprintf("u%08x", splitmix64(uint64(j.Seed))&0xffffffff),
			Partition: "gaia",
			ModelName: j.Class.Name(),
			Nodes:     j.NumNodes,
			GPUs:      j.NumGPUs,
			SubmitSec: clock,
			StartSec:  clock + wait,
			EndSec:    clock + wait + j.Duration,
			ExitCode:  exit,
		})
	}
	return entries
}
