package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/servetest"
	"repro/internal/telemetry"
)

// goldenServedHash is the FNV-64a of every prediction, verdict and feature
// distance goldenServed publishes, in the order it hashes them. It holds
// what a fleet serves to the bits it had when the test went in; a change to
// the tick's bookkeeping (its queues, its row blocks, its clock reads) must
// leave it alone. Change it only with a change that means to move served
// bits — a new model kernel, a new drift search — and say so.
const goldenServedHash = 0xba6fe434b7670d72

// goldenSteps is the tick cadence: the samples ingested before each tick,
// cycled. One sample leaves at most one row dirty, seven a handful, and 150
// is more than two of the feed's rounds, so those ticks score every job at
// once, in more than one row block where GOMAXPROCS allows it.
var goldenSteps = []int{1, 7, 150}

// goldenObserver collects the jobs each tick scored; partitions tick
// concurrently, so it locks.
type goldenObserver struct {
	mu   sync.Mutex
	jobs []int
}

func (g *goldenObserver) ObserveWindow(o Observation) {
	g.mu.Lock()
	g.jobs = append(g.jobs, o.Job)
	g.mu.Unlock()
}

// goldenFeed returns the samples goldenServed ingests: 40 consecutive
// samples of every seed-1, scale-0.02 simulated job long enough, from 30 s
// in, in replay order. The fixture's window is three sensors wide, so each
// sample keeps GPU utilisation, memory utilisation and power draw, scaled
// into the fixture's range.
func goldenFeed(t *testing.T) []Sample {
	t.Helper()
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1, Scale: 0.02, GapRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	const start, perJob = 30.0, 40
	replay, err := telemetry.NewReplay(sim.Jobs(), 0, start, start+perJob*telemetry.GPUSampleDT)
	if err != nil {
		t.Fatal(err)
	}
	var feed []Sample
	for s, ok := replay.Next(); ok; s, ok = replay.Next() {
		v := s.Values
		feed = append(feed, Sample{Job: s.JobID, Values: []float64{
			v[telemetry.UtilizationGPUPct] / 10, v[telemetry.UtilizationMemoryPct] / 10, v[telemetry.PowerDrawW] / 40,
		}})
	}
	return feed
}

// goldenCoverage counts what goldenServed hashed: ticks, scored rows,
// rejected rows, ticks of one or two rows and of 64 or more, and the
// classes served.
type goldenCoverage struct {
	ticks, rows, rejected, narrow, wide int
	classes                             map[int]bool
}

// goldenServed feeds the fleet at the golden cadence, alternating Ingest
// and IngestBatch from step to step, and hashes what every tick publishes:
// per scored job, in job order, its ID, class, probability row and open-set
// verdict.
func goldenServed(t *testing.T, feed []Sample, shards int) (uint64, goldenCoverage) {
	t.Helper()
	scaler, model := servetest.Fixture(t)
	clock := time.Unix(1000, 0)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Shards: shards, Drift: servetest.Calibration(t, 31, 400), Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	obs := &goldenObserver{}
	m.SetAdaptObserver(obs)
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	cov := goldenCoverage{classes: map[int]bool{}}
	var b Batch
	for step := 0; len(feed) > 0; step++ {
		n := min(goldenSteps[step%len(goldenSteps)], len(feed))
		if step%2 == 0 {
			for _, s := range feed[:n] {
				if err := m.Ingest(s.Job, s.Values); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			b.Samples = feed[:n]
			if errs := m.IngestBatch(&b); len(errs) != 0 {
				t.Fatal(errs[0].Err)
			}
		}
		feed = feed[n:]
		clock = clock.Add(time.Second)

		stats, err := m.Tick()
		if err != nil {
			t.Fatal(err)
		}
		scored := slices.Clone(obs.jobs)
		obs.jobs = obs.jobs[:0]
		if len(scored) != stats.Classified {
			t.Fatalf("tick classified %d jobs, observer saw %d", stats.Classified, len(scored))
		}
		slices.Sort(scored)
		cov.ticks++
		cov.rows += len(scored)
		switch {
		case len(scored) >= 64:
			cov.wide++
		case len(scored) > 0 && len(scored) <= 2:
			cov.narrow++
		}
		put(uint64(len(scored)))
		for _, id := range scored {
			p, ok := m.Prediction(id)
			if !ok || p.Open == nil {
				t.Fatalf("job %d: scored but serves %+v", id, p)
			}
			put(uint64(id))
			put(uint64(p.Class))
			for _, v := range p.Probs {
				put(math.Float64bits(v))
			}
			put(math.Float64bits(p.Open.FeatDist))
			if p.Open.Rejected {
				put(1)
				cov.rejected++
			} else {
				put(0)
			}
			cov.classes[p.Class] = true
		}
	}
	return h.Sum64(), cov
}

// TestServedBitsGolden pins what a fleet serves, bit for bit: a simulated
// feed goes through a drift-enabled monitor built from the serving fixture,
// ticked at a fixed cadence, and every tick's predictions, Open verdicts and
// feature distances hash to one constant — on both kernel paths, and at one
// partition and at three, since neither may move a served bit. It also
// checks that the feed reaches both verdicts, more than one class, ticks of
// one or two rows and ticks of 64 rows or more, which fork where
// GOMAXPROCS allows it.
func TestServedBitsGolden(t *testing.T) {
	feed := goldenFeed(t)
	for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
		t.Run(path, func(t *testing.T) {
			prev, ok := mat.SetKernelPath(path)
			if !ok {
				t.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s kernels are not run", path)
			}
			defer mat.SetKernelPath(prev)
			for _, shards := range []int{1, 3} {
				hash, c := goldenServed(t, feed, shards)
				t.Logf("%d partitions: %d samples, %d ticks (%d of 1-2 rows, %d of 64 or more), %d rows (%d rejected, %d classes)",
					shards, len(feed), c.ticks, c.narrow, c.wide, c.rows, c.rejected, len(c.classes))
				if c.rejected == 0 || c.rejected == c.rows || len(c.classes) < 2 || c.narrow == 0 || c.wide == 0 {
					t.Errorf("coverage: %d of %d rows rejected, %d classes, %d ticks of 1-2 rows, %d of 64 or more",
						c.rejected, c.rows, len(c.classes), c.narrow, c.wide)
				}
				if hash != goldenServedHash {
					t.Errorf("%d partitions: served hash %#016x, want %#016x", shards, hash, uint64(goldenServedHash))
				}
			}
		})
	}
}
