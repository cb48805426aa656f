package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stageTimes is the offline pipeline split at its package boundaries.
type stageTimes struct {
	simulate, build, embed, fit, predict, driftFit float64 // seconds
	testRows                                       int
}

// model is a trained RF-Cov pipeline, the thing every workload starts from.
type model struct {
	ds     *repro.Dataset
	res    *repro.RFCovResult
	stages stageTimes // filled by the staged path only
}

// rows is the labelled trials the pipeline processed, train and test.
func (m *model) rows() int { return m.ds.Challenge.Train.Len() + m.ds.Challenge.Test.Len() }

// trainModel runs the offline pipeline through the public facade, exactly
// as wccserve without -model does.
func trainModel(seed int64, sz sizes) (*model, error) {
	ds, err := repro.GenerateDataset(datasetName, sz.simScale, seed)
	if err != nil {
		return nil, err
	}
	res, err := repro.TrainRFCov(ds, sz.trees, seed)
	if err != nil {
		return nil, err
	}
	return &model{ds: ds, res: res}, nil
}

// trainModelStaged makes the calls repro.GenerateDataset and
// repro.TrainRFCov make, in their order, timing each package's share. The
// facade has no seam to interpose on, so the traced run replays its steps;
// the smoke test pins the two paths to the same accuracy.
func trainModelStaged(seed int64, sz sizes) (*model, error) {
	var st stageTimes
	lap := func(t0 time.Time, into *float64) time.Time {
		now := time.Now()
		*into = now.Sub(t0).Seconds()
		return now
	}
	spec, ok := dataset.SpecByName(datasetName)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", datasetName)
	}
	t := time.Now()
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: seed, Scale: sz.simScale, GapRate: 1})
	if err != nil {
		return nil, err
	}
	t = lap(t, &st.simulate)
	opts := dataset.DefaultBuildOptions()
	opts.Seed = seed
	ch, err := dataset.Build(sim, spec, opts)
	if err != nil {
		return nil, err
	}
	t = lap(t, &st.build)
	fp, err := core.CovFeatures(ch)
	if err != nil {
		return nil, err
	}
	t = lap(t, &st.embed)
	f := forest.New(forest.Config{NumTrees: sz.trees, Bootstrap: true, Seed: seed})
	if err := f.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)); err != nil {
		return nil, err
	}
	t = lap(t, &st.fit)
	probs, err := f.PredictProbaBatch(fp.TestX)
	if err != nil {
		return nil, err
	}
	pred := make([]int, probs.Rows)
	for i := range pred {
		pred[i] = mat.ArgMax(probs.Row(i))
	}
	acc, err := metrics.Accuracy(fp.TestY, pred)
	if err != nil {
		return nil, err
	}
	t = lap(t, &st.predict)
	st.testRows = probs.Rows
	cal, err := drift.Fit(drift.FitInput{
		Probs:           probs,
		TrainFeatures:   fp.TrainX,
		HeldOutFeatures: fp.TestX,
		RawSamples:      core.RawSensorSamples(ch.Train.X),
	}, drift.Options{})
	if err != nil {
		return nil, err
	}
	lap(t, &st.driftFit)
	return &model{
		ds:     &repro.Dataset{Challenge: ch, Sim: sim, Name: datasetName, Scale: sz.simScale, Seed: seed},
		res:    &repro.RFCovResult{Accuracy: acc, Model: f, ClassNames: classNames(), Scaler: fp.Scaler, Drift: cal},
		stages: st,
	}, nil
}

func classNames() []string {
	names := make([]string, telemetry.NumClasses)
	for _, c := range telemetry.AllClasses() {
		names[int(c)] = c.Name()
	}
	return names
}

// feed is the benchmark's telemetry source: every job's sample stream is a
// pure function of (seed, job, step), cut from a simulation's labelled
// series the way wccserve's replay fans a small simulation out to a large
// fleet. The simulation is the same on every seed (liveSeed, so the live
// jobs are ones the model never trained on) and job k always reads source
// series k mod the population: the class mix, and with it the bytes a
// sample takes on the wire and the tree paths a row takes, belong to the
// workload, not to the seed. The seed sets where in its series each job
// reads. (With the population itself drawn from the seed, backfill's 64
// jobs landed on a different class mix per seed and its throughput moved
// 10 % between seeds against 2 % between runs of one seed.)
type feed struct {
	src     []*mat.Matrix // one materialised GPU series per source job
	offsets []int         // per job (mod its length), seeded
}

const (
	feedStart = 120.0 // seconds into each job: past the class-agnostic start-up phase
	feedLen   = 2048  // samples materialised per source series
)

func newFeed(sim *telemetry.Simulator, seed int64, window int) (*feed, error) {
	f := &feed{}
	for _, j := range sim.Jobs() {
		n := int((j.Duration - feedStart) / telemetry.GPUSampleDT)
		if n > feedLen {
			n = feedLen
		}
		if n < window {
			continue
		}
		w, err := j.GPUWindow(0, feedStart, n)
		if err != nil {
			return nil, err
		}
		f.src = append(f.src, w)
	}
	if len(f.src) == 0 {
		return nil, errors.New("no simulated job runs long enough to feed a window")
	}
	rng := rand.New(rand.NewSource(seed))
	f.offsets = make([]int, 4096)
	for i := range f.offsets {
		f.offsets[i] = rng.Intn(feedLen)
	}
	return f, nil
}

// sample returns job's step-th sample. The slice aliases the feed; callers
// must not modify it.
func (f *feed) sample(job, step int) []float64 {
	m := f.src[job%len(f.src)]
	off := f.offsets[job%len(f.offsets)]
	return m.Row((off + step) % m.Rows)
}

// servingOpts shapes one serving set-up.
type servingOpts struct {
	jobs   int  // resident jobs, IDs 0..jobs-1
	probes int  // freshness-probe jobs, IDs from probeBase
	shards int  // partitions; 0 = GOMAXPROCS, as wccserve defaults
	http   bool // put the HTTP layer and a loopback listener in front
}

// serving is a production-shaped serving plane, pre-filled and ticked once:
// the wiring wccserve -listen does (drift calibration on, shared event bus
// with a draining subscriber, the server's trace recorder, an adapt manager
// observing write-back but never started, so no retrain lands in a timed
// window).
type serving struct {
	opts   servingOpts
	mdl    *model
	feed   *feed
	core   *shard.Core
	mon    server.Sharded // core, or the traced wrapper around it
	bus    *events.Bus
	sub    *events.Subscription
	subEnd chan struct{}
	probe  *probeTee // nil without probes
	window int

	srv     *server.Server
	httpSrv *http.Server
	base    string // http://127.0.0.1:port

	heapPerJob float64
}

// ids lists every job the set-up registered.
func (o servingOpts) ids() []int {
	out := make([]int, 0, o.jobs+o.probes)
	for k := 0; k < o.jobs; k++ {
		out = append(out, k)
	}
	for p := 0; p < o.probes; p++ {
		out = append(out, probeBase+p)
	}
	return out
}

// newServing builds the plane. Everything it does is set-up time.
func newServing(c *runCtx, o servingOpts) (*serving, error) {
	train := trainModel
	if c.traced {
		train = trainModelStaged
	}
	mdl, err := train(modelSeed, c.sz)
	if err != nil {
		return nil, err
	}
	window, sensors := mdl.ds.Challenge.Train.X.T, mdl.ds.Challenge.Train.X.C
	live, err := telemetry.NewSimulator(telemetry.Config{Seed: liveSeed, Scale: c.sz.simScale, GapRate: 1})
	if err != nil {
		return nil, err
	}
	fd, err := newFeed(live, c.seed, window)
	if err != nil {
		return nil, err
	}
	var clf stream.Classifier = mdl.res.Model
	if c.traced {
		clf = &tracedClassifier{single: mdl.res.Model, batch: mdl.res.Model, rec: c.rec}
	}
	cr, err := shard.New(shard.Config{
		Window: window, Sensors: sensors, Scaler: mdl.res.Scaler,
		Model: clf, Shards: o.shards, Drift: mdl.res.Drift,
	})
	if err != nil {
		return nil, err
	}
	s := &serving{opts: o, mdl: mdl, feed: fd, core: cr, mon: cr, window: window}
	if c.traced {
		s.mon = &tracedCore{Core: cr, rec: c.rec}
	}

	before := liveHeap()
	for _, id := range o.ids() {
		for step := 0; step < window; step++ {
			if err := cr.Ingest(id, fd.sample(id, step)); err != nil {
				return nil, err
			}
		}
	}
	s.heapPerJob = (liveHeap() - before) / float64(o.jobs+o.probes)

	s.bus = events.NewBus()
	mgr, err := adapt.New(adapt.Config{
		FeatureDim:  adapt.FeatureDimFor(sensors),
		Calibration: mdl.res.Drift,
		Seed:        c.seed,
		Events:      s.bus,
		Trainer: &adapt.ProvenanceTrainer{
			Meta: artifact.Metadata{
				ClassNames: mdl.res.ClassNames, Features: "cov", Window: window, Sensors: sensors,
				Dataset: mdl.ds.Name, Scale: mdl.ds.Scale, Seed: mdl.ds.Seed,
			},
			Scaler: mdl.res.Scaler,
		},
		Promote: func(*artifact.Artifact) error { return errors.New("benchmark: promotion is not wired") },
	})
	if err != nil {
		return nil, err
	}
	var obs fleet.Observer = mgr
	if c.traced {
		obs = tracedObserver{next: obs, rec: c.rec}
	}
	if o.probes > 0 {
		// The tee sits in front of the manager (and of its span), so a probe
		// is stamped the moment write-back hands the row over.
		s.probe = &probeTee{next: obs, seen: make(chan probeSeen, 4*o.probes)}
		obs = s.probe
	}
	cr.SetAdaptObserver(obs)

	if o.http {
		s.srv, err = server.New(server.Config{
			Monitor: s.mon, ClassNames: mdl.res.ClassNames, TickEvery: tickEvery,
			Workers: runtime.GOMAXPROCS(0), Events: s.bus, Adapt: mgr,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		var h http.Handler = s.srv.Handler()
		if c.traced {
			h = tracedHandler{next: h, rec: c.rec}
		}
		s.httpSrv = &http.Server{Handler: h}
		s.httpSrv.RegisterOnShutdown(s.srv.CloseStreams)
		s.base = "http://" + ln.Addr().String()
		go func() { _ = s.httpSrv.Serve(ln) }() // returns ErrServerClosed at Shutdown; close() waits for that
	} else {
		s.mon.SetEventSink(s.bus)
		s.mon.SetTraceRecorder(trace.NewRecorder())
	}

	// One tick over every pre-filled window before anything is timed. Over
	// HTTP the server's own loops may get there first; either way the plane
	// is warm once every job has a prediction.
	want := uint64(o.jobs + o.probes)
	for deadline := time.Now().Add(30 * time.Second); cr.Classifications() < want; {
		if _, err := s.mon.Tick(); err != nil {
			return nil, errors.Join(err, s.close())
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("warm-up tick classified %d of %d jobs", cr.Classifications(), want), s.close())
		}
	}

	// The in-process subscriber joins after the warm-up tick: that tick
	// publishes one first-classification event per job in a single burst,
	// which is start-up, not the steady state being measured.
	s.sub = s.bus.Subscribe(events.SubOptions{Buffer: 8192})
	s.subEnd = make(chan struct{})
	go func() {
		defer close(s.subEnd)
		for range s.sub.Events() {
		}
	}()
	return s, nil
}

// close drains the plane the way wccserve's SIGTERM path does (listener
// first, then queued batches and a final tick) and stops every goroutine
// the set-up started. Safe to call twice; the second call returns nil.
func (s *serving) close() error {
	var errs []error
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		cancel()
		s.httpSrv = nil
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		s.srv = nil
	}
	if s.sub != nil {
		s.sub.Close()
		<-s.subEnd
		s.sub = nil
	}
	return errors.Join(errs...)
}

// probeSeen is one probe job's write-back, stamped inside the tick.
type probeSeen struct {
	job int
	at  time.Time
}

// probeTee is the benchmark-owned fleet.Observer in front of the adapt
// manager. It never blocks: a full channel drops the stamp and the probe
// counts as failed.
type probeTee struct {
	next fleet.Observer
	seen chan probeSeen
}

func (p *probeTee) ObserveWindow(o fleet.Observation) {
	if o.Job >= probeBase {
		select {
		case p.seen <- probeSeen{job: o.Job, at: time.Now()}:
		default:
		}
	}
	p.next.ObserveWindow(o)
}
