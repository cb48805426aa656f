package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmodCases returns the operand pairs fmod is checked on: seeded random
// times against every remainder period the simulator takes (epoch, step,
// warm-up step and validation step of each class profile and of jittered
// jobs), exact multiples and their neighbours, x < y, both zeros,
// quotients near 2⁵², and the operands fmod hands to math.Mod.
func fmodCases() [][2]float64 {
	var periods []float64
	addProfile := func(p Profile) {
		periods = append(periods, p.EpochTime, p.StepTime, p.StepTime*2,
			math.Max(p.StepTime*0.4, GPUSampleDT))
	}
	for _, c := range AllClasses() {
		addProfile(ProfileFor(c))
	}
	sim, err := NewSimulator(Config{Seed: 1, Scale: 0.02, GapRate: 1})
	if err != nil {
		panic(err)
	}
	for _, j := range append(sim.Jobs(), UnknownJobs(8, 1)...) {
		addProfile(j.prof)
	}
	rng := rand.New(rand.NewSource(39))
	var cases [][2]float64
	for _, y := range periods {
		for i := 0; i < 25; i++ {
			cases = append(cases, [2]float64{rng.Float64() * 1e6, y})
		}
		for _, k := range []float64{1, 2, 3, 7, 1000, 123456, rng.Float64() * 1e6} {
			x := math.Round(k) * y
			cases = append(cases, [2]float64{x, y},
				[2]float64{math.Nextafter(x, 0), y}, [2]float64{math.Nextafter(x, math.Inf(1)), y})
		}
		cases = append(cases, [2]float64{y / 3, y}, [2]float64{math.Nextafter(y, 0), y},
			[2]float64{0, y}, [2]float64{math.Copysign(0, -1), y})
		for _, q := range []float64{1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 - 1} {
			x := q * y
			cases = append(cases, [2]float64{x, y},
				[2]float64{math.Nextafter(x, 0), y}, [2]float64{math.Nextafter(x, math.Inf(1)), y})
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	cases = append(cases,
		[2]float64{-5, 3}, [2]float64{5, -3}, [2]float64{-5, -3}, [2]float64{5, 0},
		[2]float64{nan, 3}, [2]float64{5, nan}, [2]float64{inf, 3}, [2]float64{-inf, 3},
		[2]float64{5, inf}, [2]float64{5, -inf}, [2]float64{inf, inf},
		[2]float64{5, sub}, [2]float64{sub, sub}, [2]float64{3 * sub, 2 * sub},
		[2]float64{1e-300, 7 * sub}, [2]float64{math.MaxFloat64, 3}, [2]float64{1e-320, 1e300})
	return cases
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestEquivalenceFmodMatchesMathMod pins that the simulator's remainder is
// math.Mod bit for bit.
func TestEquivalenceFmodMatchesMathMod(t *testing.T) {
	for _, c := range fmodCases() {
		if got, want := fmod(c[0], c[1]), math.Mod(c[0], c[1]); !sameFloat(got, want) {
			t.Errorf("fmod(%v, %v) = %v (%#x), math.Mod = %v (%#x)",
				c[0], c[1], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func FuzzFmod(f *testing.F) {
	for _, c := range fmodCases() {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		if got, want := fmod(x, y), math.Mod(x, y); !sameFloat(got, want) {
			t.Errorf("fmod(%v, %v) = %v, math.Mod = %v", x, y, got, want)
		}
	})
}

// stallSpec is the stall schedule written out as its definition: a stall
// at t starts in t's 10-second block or the one before, each block draws a
// stall with probability rate·10/60 (at most 0.95) at a hashed offset,
// lasting 0.3-1.5 s.
func stallSpec(j *Job, gpu int, t float64) bool {
	rate := j.prof.StallRate
	if rate <= 0 {
		return false
	}
	prob := math.Min(rate*10/60, 0.95)
	stream := streamSeed(j.Seed, gpu, chStall)
	for _, b := range []int64{int64(t / 10), int64(t/10) - 1} {
		if b < 0 || hashUniform(stream, 3*b) >= prob {
			continue
		}
		start := float64(b)*10 + hashUniform(stream, 3*b+1)*10
		if t >= start && t < start+0.3+1.2*hashUniform(stream, 3*b+2) {
			return true
		}
	}
	return false
}

// TestStallCursorMatchesInStall walks one cursor per GPU through seeded
// windows that cross many block boundaries, forwards sample by sample and
// with jumps back and ahead, and checks every answer against inStall and
// the written-out schedule.
func TestStallCursorMatchesInStall(t *testing.T) {
	sim, err := NewSimulator(Config{Seed: 9, Scale: 0.02, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	stalled, checked := 0, 0
	for _, j := range append(sim.Jobs(), UnknownJobs(4, 9)...) {
		gpu := rng.Intn(j.NumGPUs)
		c := j.stallCursor(gpu)
		start := int64(rng.Float64() * j.Duration / GPUSampleDT / 2)
		for i := int64(0); i < 2000; i++ {
			idx := start + i
			if i%500 == 499 {
				idx = rng.Int63n(start + 2000) // jump back or ahead
			}
			ts := float64(idx) * GPUSampleDT
			got, want := c.at(ts), j.inStall(gpu, ts)
			if got != want || want != stallSpec(j, gpu, ts) {
				t.Fatalf("job %d gpu %d t=%v: cursor %v, inStall %v, schedule %v",
					j.ID, gpu, ts, got, want, stallSpec(j, gpu, ts))
			}
			checked++
			if got {
				stalled++
			}
		}
	}
	if stalled == 0 {
		t.Fatalf("no stalled sample among %d", checked)
	}
}

func TestGPUWindowRefusesNonFiniteStart(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 3, Scale: 0.02, GapRate: 1})
	j := sim.Jobs()[0]
	for _, t0 := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w, err := j.GPUWindow(0, t0, 3)
		if err == nil {
			t.Errorf("GPUWindow(0, %v, 3) = %v, want an error", t0, w.Data)
			continue
		}
		if name := fmt.Sprint(t0); !strings.Contains(err.Error(), name) {
			t.Errorf("GPUWindow(0, %v, 3): error %q does not name %s", t0, err, name)
		}
	}
}

func TestGPUWindowRefusesNegativeLength(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 3, Scale: 0.02, GapRate: 1})
	_, err := sim.Jobs()[0].GPUWindow(0, 0, -1)
	if err == nil || !strings.Contains(err.Error(), "-1") {
		t.Errorf("GPUWindow(0, 0, -1): error %v, want one naming -1", err)
	}
}

func TestReplayRefusesNonFiniteSpan(t *testing.T) {
	sim, _ := NewSimulator(Config{Seed: 3, Scale: 0.01, GapRate: 1})
	nan, inf := math.NaN(), math.Inf(1)
	for _, span := range [][2]float64{{nan, 100}, {0, nan}, {0, inf}, {-inf, 100}} {
		_, err := NewReplay(sim.Jobs(), 0, span[0], span[1])
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("NewReplay(%v, %v): error %v, want a non-finite span error", span[0], span[1], err)
		}
	}
}

// BenchmarkGPUWindow materialises 540-sample (60 s) windows from the
// middle of each job of the seed-1, scale-0.08 population, GPU 0, the
// window the middle datasets and the benchmark's live feed cut.
func BenchmarkGPUWindow(b *testing.B) {
	sim, err := NewSimulator(Config{Seed: 1, Scale: 0.08, GapRate: 1})
	if err != nil {
		b.Fatal(err)
	}
	var jobs []*Job
	for _, j := range sim.Jobs() {
		if j.Duration >= 60 {
			jobs = append(jobs, j)
		}
	}
	i := 0
	for b.Loop() {
		j := jobs[i%len(jobs)]
		i++
		if _, err := j.GPUWindow(0, (j.Duration-60)/2, 540); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*540), "ns/sample")
}
