package telemetry

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Job is one labelled training job: a model class realised with
// job-specific hyper-parameters, running for Duration seconds on NumGPUs
// V100s spread across NumNodes nodes. All telemetry for the job derives
// deterministically from Seed.
type Job struct {
	ID       int
	Class    Class
	Seed     int64
	NumGPUs  int
	NumNodes int
	Duration float64 // seconds
	Startup  float64 // seconds of class-agnostic startup before training

	prof Profile // per-job jittered realisation of the class profile

	// Per-GPU hardware variation.
	utilOffset []float64
	tempOffset []float64
	powOffset  []float64
}

// phase identifies where in the training lifecycle a timestamp falls.
type phase int

const (
	phaseStartup phase = iota
	phaseTrain
	phaseValidation
	phaseCheckpoint
)

// noise stream channels (third argument to streamSeed).
const (
	chUtil = iota
	chMem
	chPower
	chTempGPU
	chTempMem
	chSpike
	chMemUtil
	chGap
	chSlowPhase
	chStall
)

// phaseAt returns the lifecycle phase at absolute job time t and the time
// elapsed since training started (0 during startup).
func (j *Job) phaseAt(t float64) (phase, float64) {
	if t < j.Startup {
		return phaseStartup, 0
	}
	tt := t - j.Startup
	p := &j.prof
	pos := fmod(tt, p.EpochTime)
	valDur := p.EpochTime * p.ValFrac
	ckpt := math.Min(p.CkptTime, p.EpochTime*0.1)
	trainDur := p.EpochTime - valDur - ckpt
	switch {
	case pos < trainDur:
		return phaseTrain, tt
	case pos < trainDur+valDur:
		return phaseValidation, tt
	default:
		return phaseCheckpoint, tt
	}
}

// stepState returns the within-step phase in [0,1) and the effective duty
// cycle at training time tt, accounting for the slow warmup of the first
// few steps (framework autotuning).
func (j *Job) stepState(tt float64) (stepPhase, duty, utilScale float64) {
	p := &j.prof
	step := p.StepTime
	utilScale = 1.0
	warmup := 8 * p.StepTime
	if tt < warmup*2 {
		step = p.StepTime * 2
		utilScale = 0.75
	}
	stepPhase = fmod(tt, step) / step
	duty = p.Duty
	if j.NumNodes > 1 {
		duty = clamp(duty-0.04, 0.2, 0.97) // inter-node gradient sync gap
	}
	return stepPhase, duty, utilScale
}

// busyFraction returns the fraction of [t0, t0+dt) covered by the busy part
// of a square wave with the given period and duty cycle (busy first, idle
// after). It is the exact integral, so overlapping windows remain
// consistent.
func busyFraction(t0, dt, period, duty float64) float64 {
	if period <= 0 {
		return duty
	}
	busyLen := duty * period
	cum := func(x float64) float64 {
		n := math.Floor(x / period)
		r := x - n*period
		return n*busyLen + math.Min(r, busyLen)
	}
	return (cum(t0+dt) - cum(t0)) / dt
}

// fmod returns math.Mod(x, y), bit for bit, without math.Mod's
// bit-by-bit loop on the remainders the simulator takes. The true remainder
// x − Q·y (Q = ⌊x/y⌋) is representable, so a fused multiply-add with the
// integer quotient Q returns it unchanged. Below 2⁵², Q and Q+1 are
// representable and rounding is monotone, so the rounded x/y truncates to
// one of them; Q+1 leaves a negative remainder, and one step back finds Q.
// Zero, negative, non-finite and huge-quotient operands take math.Mod.
func fmod(x, y float64) float64 {
	if !(x > 0 && y > 0 && y <= math.MaxFloat64) {
		return math.Mod(x, y)
	}
	q := math.Trunc(x / y)
	if !(q < 1<<52) {
		return math.Mod(x, y)
	}
	r := math.FMA(-q, y, x)
	if r < 0 {
		r = math.FMA(-(q - 1), y, x)
	}
	return r
}

// stallBlockLen is the length of the blocks input-pipeline stalls are
// scheduled in.
const stallBlockLen = 10.0

// stallBlock is the stall a 10-second block b schedules on one GPU, if it
// draws one: stalled with probability rate·10/60, from a hashed offset
// inside the block, lasting 0.3-1.5 s, so it may spill into block b+1.
type stallBlock struct {
	b          int64
	stalled    bool
	start, dur float64
}

func newStallBlock(stream uint64, prob float64, b int64) stallBlock {
	s := stallBlock{b: b}
	if b < 0 || hashUniform(stream, 3*b) >= prob {
		return s
	}
	s.stalled = true
	s.start = float64(b)*stallBlockLen + hashUniform(stream, 3*b+1)*stallBlockLen
	s.dur = 0.3 + 1.2*hashUniform(stream, 3*b+2)
	return s
}

func (s stallBlock) covers(t float64) bool {
	return s.stalled && t >= s.start && t < s.start+s.dur
}

// stallCursor answers whether a GPU is stalled at time t from the two
// blocks a stall at t can start in, t's block and the one before. It keeps
// both and recomputes them only when t crosses into another block, so a
// window of samples in time order draws each block once. It starts before
// block 0, where no block stalls.
type stallCursor struct {
	stream    uint64
	prob      float64 // chance a block stalls; 0 for a class that never does
	cur, prev stallBlock
}

func (j *Job) stallCursor(gpu int) stallCursor {
	c := stallCursor{
		stream: streamSeed(j.Seed, gpu, chStall),
		cur:    stallBlock{b: -1},
		prev:   stallBlock{b: -2},
	}
	if rate := j.prof.StallRate; rate > 0 {
		c.prob = math.Min(rate*stallBlockLen/60, 0.95)
	}
	return c
}

func (c *stallCursor) at(t float64) bool {
	if c.prob <= 0 {
		return false
	}
	b := int64(t / stallBlockLen)
	if b != c.cur.b {
		if b == c.cur.b+1 {
			c.prev = c.cur
		} else {
			c.prev = newStallBlock(c.stream, c.prob, b-1)
		}
		c.cur = newStallBlock(c.stream, c.prob, b)
	}
	return c.cur.covers(t) || c.prev.covers(t)
}

// inStall reports whether an input-pipeline stall is active on the GPU at
// absolute time t.
func (j *Job) inStall(gpu int, t float64) bool {
	c := j.stallCursor(gpu)
	return c.at(t)
}

// fraction estimates the fraction of [t, t+dt) the cursor's GPU spends
// stalled on its input pipeline by probing the schedule at sub-interval
// resolution. CPUSeries walks one cursor through a node's rows with it, so
// each stall block is drawn once per series. Used to couple host CPU
// telemetry to GPU starvation.
func (c *stallCursor) fraction(t, dt float64) float64 {
	const probes = 20
	hit := 0
	for k := 0; k < probes; k++ {
		if c.at(t + dt*(float64(k)+0.5)/probes) {
			hit++
		}
	}
	return float64(hit) / probes
}

// gpuStreams is what a window derives once for its GPU instead of once
// per sample: the noise stream of each sensor channel, the slow drift's
// phase (a uniform in [0, 1)) and the stall schedule.
type gpuStreams struct {
	gpu                                          int
	util, mem, memUtil, power, tGPU, tMem, spike uint64
	slowPhase                                    float64
	stall                                        stallCursor
}

func (j *Job) gpuStreams(gpu int) gpuStreams {
	return gpuStreams{
		gpu:       gpu,
		util:      streamSeed(j.Seed, gpu, chUtil),
		mem:       streamSeed(j.Seed, gpu, chMem),
		memUtil:   streamSeed(j.Seed, gpu, chMemUtil),
		power:     streamSeed(j.Seed, gpu, chPower),
		tGPU:      streamSeed(j.Seed, gpu, chTempGPU),
		tMem:      streamSeed(j.Seed, gpu, chTempMem),
		spike:     streamSeed(j.Seed, gpu, chSpike),
		slowPhase: hashUniform(streamSeed(j.Seed, gpu, chSlowPhase), 0),
		stall:     j.stallCursor(gpu),
	}
}

// gpuSample computes the seven DCGM sensor values for one GPU at sample
// index idx (absolute time idx*GPUSampleDT), given the thermal state carried
// by the caller. It returns the raw (unquantised) values; temperature state
// is advanced in place. Samples of one window come in time order, which is
// what the stall cursor in s is fastest at.
func (j *Job) gpuSample(s *gpuStreams, idx int64, tGPU, tMem *float64) [NumGPUSensors]float64 {
	t := float64(idx) * GPUSampleDT
	p := &j.prof
	k := newNormalKey(idx)
	ph, tt := j.phaseAt(t)

	var util, memUsed, powerEff float64
	switch ph {
	case phaseStartup:
		util = j.startupUtil(s, k, idx, t)
		memUsed = j.startupMem(t)
		powerEff = 0.5
	case phaseTrain:
		sp, duty, scale := j.stepState(tt)
		slow := p.SlowModAmp * math.Sin(2*math.Pi*tt/p.SlowModPeriod+
			s.slowPhase*2*math.Pi)
		// DCGM utilization is a counter-derived average over the sampling
		// period, not an instantaneous reading: each sample reports the
		// fraction of the interval the kernel queue was busy. This makes
		// the per-sample distribution (and hence the window variance the
		// covariance embedding sees) a function of the step period relative
		// to the 9 Hz sampling — the cue that separates sub-architectures
		// whose only difference is per-step compute time.
		step := p.StepTime
		if tt < 16*p.StepTime {
			step = p.StepTime * 2
		}
		frac := busyFraction(tt, GPUSampleDT, step, duty)
		high := (p.UtilHigh+j.utilOffset[s.gpu])*scale + slow
		noise := k.normal(s.util)
		util = p.UtilLow + (high-p.UtilLow)*frac +
			(p.UtilJitter*frac+1.0)*noise
		memUsed = j.trainMem(s, k, tt, sp, duty, 1.0)
		powerEff = p.PowerEff
		if s.stall.at(t) {
			// Input-pipeline stall: the GPU starves while memory stays
			// allocated. Stall *rate* is a class cue; the stalls themselves
			// randomise window means.
			util = 1 + 2*math.Abs(noise)
			powerEff = 0.45
		}
	case phaseValidation:
		// Forward-only: shorter steps, higher duty, lower power per util.
		valStep := math.Max(p.StepTime*0.4, GPUSampleDT)
		sp := fmod(tt, valStep) / valStep
		if sp < 0.96 {
			util = math.Min(p.UtilHigh*1.05, 100) +
				p.UtilJitter*0.7*k.normal(s.util)
		} else {
			util = p.UtilLow
		}
		memUsed = j.trainMem(s, k, tt, sp, 0.96, 0.8)
		powerEff = p.PowerEff * 0.8
	case phaseCheckpoint:
		util = 2 + math.Abs(k.normal(s.util))
		memUsed = p.MemBaseMiB + p.MemActMiB*0.8
		powerEff = 0.45
	}
	util = clamp(util, 0, 100)

	memUtil := clamp(util*p.MemUtilRatio*
		(1+0.05*k.normal(s.memUtil)), 0, 100)

	power := GPUPowerIdleW + (GPUPowerMaxW-GPUPowerIdleW)*powerEff*
		(0.72*util+0.28*memUtil)/100 +
		j.powOffset[s.gpu] + 1.5*k.normal(s.power)
	power = clamp(power, GPUPowerIdleW*0.85, 310)

	// First-order thermal models: GPU die (fast) and HBM stacks (slow).
	const (
		tauGPU, rGPU = 40.0, 0.16
		tauMem, rMem = 60.0, 0.115
	)
	amb := AmbientTempC + j.tempOffset[s.gpu]
	*tGPU += GPUSampleDT/tauGPU*(amb+rGPU*power-*tGPU) +
		0.08*k.normal(s.tGPU)
	*tMem += GPUSampleDT/tauMem*(amb+rMem*power-*tMem) +
		0.06*k.normal(s.tMem)

	memUsed = clamp(memUsed, 0, GPUMemoryTotalMiB)
	return [NumGPUSensors]float64{
		util,
		memUtil,
		GPUMemoryTotalMiB - memUsed,
		memUsed,
		*tGPU,
		*tMem,
		power,
	}
}

// startupUtil models the class-agnostic startup: an idle GPU with sparse
// initialisation spikes while the host loads data and builds the model.
func (j *Job) startupUtil(s *gpuStreams, k normalKey, idx int64, t float64) float64 {
	if t > j.Startup*0.85 {
		// Model materialisation: first kernels warm the GPU.
		return 8 + 10*hashUniform(s.spike, idx)
	}
	if hashUniform(s.spike, idx) < 0.03 {
		return 10 + 35*hashUniform(s.spike, idx+1<<40)
	}
	return math.Abs(k.normal(s.util)) * 0.8
}

// startupMem models memory during startup: nothing, then the CUDA context,
// then the parameter/optimizer allocation ramp.
func (j *Job) startupMem(t float64) float64 {
	su := j.Startup
	const ctxMiB = 450.0
	switch {
	case t < 0.25*su:
		return 0
	case t < 0.40*su:
		return ctxMiB * (t - 0.25*su) / (0.15 * su)
	case t < 0.85*su:
		return ctxMiB
	default:
		frac := (t - 0.85*su) / (0.15 * su)
		return ctxMiB + (j.prof.MemBaseMiB-ctxMiB)*clamp(frac, 0, 1)
	}
}

// trainMem models steady-state memory: base + activation plateau (growing
// over the first ~90 s of training as caching allocators settle) + the
// per-step activation sawtooth.
func (j *Job) trainMem(s *gpuStreams, k normalKey, tt, stepPhase, duty, actScale float64) float64 {
	p := &j.prof
	plateau := p.MemActMiB * actScale * (1 - 0.30*math.Exp(-tt/90))
	var saw float64
	if stepPhase < duty {
		saw = stepPhase / duty // forward: activations accumulate
	} else {
		saw = 1 - (stepPhase-duty)/(1-duty) // backward: freed
	}
	return p.MemBaseMiB + plateau + p.MemSawMiB*saw +
		8*k.normal(s.mem)
}

// steadyTemps estimates the thermal state at absolute time t0 so windows can
// start mid-job without integrating from t=0: the steady-state temperature
// for the current phase's mean power, relaxed toward ambient when the job is
// younger than the thermal time constant.
func (j *Job) steadyTemps(gpu int, t0 float64) (tGPU, tMem float64) {
	ph, _ := j.phaseAt(t0)
	p := &j.prof
	var meanUtil, eff float64
	switch ph {
	case phaseStartup:
		meanUtil, eff = 3, 0.5
	case phaseTrain:
		_, duty, _ := j.stepState(math.Max(t0-j.Startup, 0))
		meanUtil = p.UtilHigh*duty + p.UtilLow*(1-duty)
		eff = p.PowerEff
	case phaseValidation:
		meanUtil, eff = math.Min(p.UtilHigh*1.05, 100)*0.96, p.PowerEff*0.8
	case phaseCheckpoint:
		meanUtil, eff = 3, 0.45
	}
	meanPower := GPUPowerIdleW + (GPUPowerMaxW-GPUPowerIdleW)*eff*
		(0.72+0.28*p.MemUtilRatio)*meanUtil/100
	amb := AmbientTempC + j.tempOffset[gpu]
	warm := 1 - math.Exp(-t0/40)
	tGPU = amb + (0.16*meanPower)*warm
	warmMem := 1 - math.Exp(-t0/60)
	tMem = amb + (0.115*meanPower)*warmMem
	return tGPU, tMem
}

// GPUWindow materialises n consecutive DCGM samples for one GPU starting at
// absolute job time t0. The result is an n×7 matrix whose columns follow the
// Table III sensor order. Values are quantised the way DCGM reports them
// (integer percentages, MiB and °C; power to 0.01 W).
//
// The window must lie inside the job: n ≥ 0, t0 finite and ≥ 0, and
// t0 + n·dt ≤ Duration.
func (j *Job) GPUWindow(gpu int, t0 float64, n int) (*mat.Matrix, error) {
	if gpu < 0 || gpu >= j.NumGPUs {
		return nil, fmt.Errorf("telemetry: job %d has %d GPUs, requested %d", j.ID, j.NumGPUs, gpu)
	}
	if n < 0 {
		return nil, fmt.Errorf("telemetry: negative window length %d", n)
	}
	if math.IsNaN(t0) || math.IsInf(t0, 0) {
		return nil, fmt.Errorf("telemetry: window start %v is not finite", t0)
	}
	if t0 < 0 || t0+float64(n)*GPUSampleDT > j.Duration+1e-9 {
		return nil, fmt.Errorf("telemetry: window [%.1f, %.1f) outside job duration %.1f",
			t0, t0+float64(n)*GPUSampleDT, j.Duration)
	}
	out := mat.New(n, int(NumGPUSensors))
	tGPU, tMem := j.steadyTemps(gpu, t0)
	streams := j.gpuStreams(gpu)
	startIdx := int64(math.Round(t0 / GPUSampleDT))
	for i := 0; i < n; i++ {
		s := j.gpuSample(&streams, startIdx+int64(i), &tGPU, &tMem)
		row := out.Row(i)
		row[UtilizationGPUPct] = math.Round(s[UtilizationGPUPct])
		row[UtilizationMemoryPct] = math.Round(s[UtilizationMemoryPct])
		row[MemoryFreeMiB] = math.Round(s[MemoryFreeMiB])
		row[MemoryUsedMiB] = math.Round(s[MemoryUsedMiB])
		row[TemperatureGPU] = math.Round(s[TemperatureGPU])
		row[TemperatureMemory] = math.Round(s[TemperatureMemory])
		row[PowerDrawW] = math.Round(s[PowerDrawW]*100) / 100
	}
	return out, nil
}

// HasGap reports whether the telemetry stream for the given GPU has a
// collector outage overlapping [t0, t1). Real monitoring pipelines drop
// samples when collectors restart; the challenge's random-window datasets
// have slightly different trial counts because of such artefacts.
func (j *Job) HasGap(gpu int, t0, t1 float64) bool {
	const blockLen = 600.0
	const gapProb = 0.012
	stream := streamSeed(j.Seed, gpu, chGap)
	first := int64(math.Floor(t0/blockLen)) - 1
	last := int64(math.Floor(t1 / blockLen))
	for b := first; b <= last; b++ {
		if b < 0 {
			continue
		}
		if hashUniform(stream, 3*b) >= gapProb {
			continue
		}
		gapStart := float64(b)*blockLen + hashUniform(stream, 3*b+1)*blockLen
		gapLen := 5 + 15*hashUniform(stream, 3*b+2)
		if gapStart < t1 && gapStart+gapLen > t0 {
			return true
		}
	}
	return false
}

// NumGPUSeries returns the number of labelled GPU time series the job
// contributes (one per GPU, all with the same class label).
func (j *Job) NumGPUSeries() int { return j.NumGPUs }
