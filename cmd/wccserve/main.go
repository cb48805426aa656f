// Command wccserve is the serving process: it loads the paper's best
// baseline as one model artifact — a .wcc file written by wcctrain -o /
// repro.SaveModel, in milliseconds — and serves it over the HTTP API (see
// internal/server; docs/API.md is the full reference) from the sharded
// core (fleet.Monitor): jobs hash to independent monitor shards (-shards,
// default GOMAXPROCS), each ticking on its own goroutine.
//
// Usage:
//
//	wccserve -model rf-cov.wcc
//	wccserve -model rf-cov.wcc -listen 127.0.0.1:8077 -tick 10ms -shards 8
//
// The API offers NDJSON or binary batch ingest with bounded-queue
// backpressure, prediction reads, /healthz and /metrics with per-shard
// series. SIGINT/SIGTERM drains gracefully — queued batches land, then a
// final inference tick flushes pending windows on every shard before exit.
// cmd/wccload is the matching load generator; it reports ingest throughput,
// live accuracy, rejection quality and drift score over HTTP.
//
// -model is required and no training happens here: the artifact supplies
// the classifier, the scaler, the drift calibration and the window shape.
// While serving, the artifact path is polled (-model-poll) and a replaced
// artifact — detected by its section CRCs, so even a same-size,
// same-mtime rewrite is caught — is hot-swapped into the live fleet with
// zero downtime, installing on every shard atomically.
//
// With -cluster the process joins an N-node serving fleet: jobs hash
// across nodes, ingest for peer-owned jobs is forwarded over the binary
// peer protocol, job reads redirect to the owner, and a changed artifact
// rolls out fleet-wide via the two-phase prepare/commit control plane,
// each node pulling the bytes it is asked to prepare (see internal/cluster
// and docs/API.md):
//
//	wccserve -model rf-cov.wcc -listen :8077 \
//	    -cluster http://n0:8077,http://n1:8077,http://n2:8077 -node 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/server"
)

func main() {
	shards := flag.Int("shards", 0, "serving-core shards: partitions of the one monitor, each with its own tick loop (0 = GOMAXPROCS)")
	tick := flag.Duration("tick", 10*time.Millisecond, "per-shard batched inference interval")
	model := flag.String("model", "", "the .wcc artifact to serve (required; write one with wcctrain -o)")
	modelPoll := flag.Duration("model-poll", 2*time.Second, "poll interval for hot-swapping a changed artifact (0 disables)")
	listen := flag.String("listen", "127.0.0.1:8077", "serve the HTTP API on this address")
	debugAddr := flag.String("debug-addr", "", "mount net/http/pprof on this separate address (off by default; keep it loopback-only)")
	evictAfter := flag.Duration("evict-after", 0, "evict jobs idle longer than this (0 disables)")
	clusterURLs := flag.String("cluster", "", "comma-separated base URLs of every cluster node in ID order; this process becomes node -node of that fleet")
	clusterNode := flag.Int("node", 0, "with -cluster: this process's node ID (index into the -cluster list)")
	clusterDir := flag.String("cluster-dir", "", "with -cluster: staging directory for the .wcc artifacts this node pulls from peers, and serves to them (default: a per-node dir under the OS temp dir)")
	adaptOn := flag.Bool("adapt", false, "run the continual-learning flywheel — buffer rejected windows, cluster candidate families, shadow-score a retrained candidate, promote through the hot-swap path (see /v1/adapt)")
	adaptMinSupport := flag.Int("adapt-min-support", 30, "with -adapt: rejected windows a cluster needs before it becomes a candidate class")
	adaptRadius := flag.Float64("adapt-radius", 0, "with -adapt: leader-clustering radius in standardised feature space (0 = the calibration's feature-gate cut point; raise it when rejected traffic spans several loose archetypes that should fold into one family)")
	adaptAuto := flag.Bool("adapt-auto-promote", false, "with -adapt: promote automatically when the shadow candidate passes the quality gate")
	adaptEvery := flag.Duration("adapt-every", 5*time.Second, "with -adapt: flywheel cadence (cluster/train/gate checks)")
	adaptShadowMin := flag.Int("adapt-shadow-min", 200, "with -adapt: live windows the candidate must shadow-score before the quality gate opens")
	flag.Parse()

	if err := run(config{
		shards: *shards, tick: *tick, model: *model, modelPoll: *modelPoll,
		listen: *listen, debugAddr: *debugAddr, evictAfter: *evictAfter,
		cluster: *clusterURLs, node: *clusterNode, clusterDir: *clusterDir,
		adapt: *adaptOn, adaptMinSupport: *adaptMinSupport, adaptRadius: *adaptRadius, adaptAuto: *adaptAuto,
		adaptEvery: *adaptEvery, adaptShadowMin: *adaptShadowMin,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "wccserve:", err)
		os.Exit(1)
	}
}

type config struct {
	shards     int
	tick       time.Duration
	model      string
	modelPoll  time.Duration
	listen     string
	debugAddr  string
	evictAfter time.Duration
	cluster    string
	node       int
	clusterDir string

	adapt           bool
	adaptMinSupport int
	adaptRadius     float64
	adaptAuto       bool
	adaptEvery      time.Duration
	adaptShadowMin  int
}

// logf is the process's operational log: prefixed lines on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wccserve: "+format+"\n", args...)
}

// clusterPeers splits the -cluster list into normalised base URLs.
func clusterPeers(list string) []string {
	peers := strings.Split(list, ",")
	for i := range peers {
		peers[i] = strings.TrimRight(strings.TrimSpace(peers[i]), "/")
	}
	return peers
}

// validate rejects the flag combinations that need no artifact to judge, so
// a mistyped command line fails before the artifact is loaded.
func validate(c config) error {
	if c.model == "" {
		return fmt.Errorf("-model is required: write an artifact with wcctrain -o and serve that")
	}
	if c.cluster != "" {
		if n := len(clusterPeers(c.cluster)); c.node < 0 || c.node >= n {
			return fmt.Errorf("-node %d out of range for the %d nodes in -cluster", c.node, n)
		}
	}
	if c.adapt && c.modelPoll <= 0 {
		return fmt.Errorf("-adapt needs -model-poll > 0: promotion installs candidates through the artifact watcher")
	}
	return nil
}

// loadModel loads generation 0, the one model value everything below
// consumes, from the -model file (milliseconds to first classification).
func loadModel(path string, out io.Writer) (*artifact.Artifact, error) {
	t0 := time.Now()
	a, err := artifact.Load(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "loaded %s artifact %s in %s (dataset %s, scale %.2f, seed %d, offline accuracy %.2f%%)\n\n",
		a.Meta.Kind, path, time.Since(t0).Round(time.Millisecond), a.Meta.Dataset, a.Meta.Scale, a.Meta.Seed, a.Meta.Accuracy*100)
	return a, nil
}

// run serves until SIGINT/SIGTERM, then drains.
func run(c config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, c, os.Stdout)
}

// serve puts the fleet behind the HTTP API, with the artifact watcher
// hot-swapping underneath, until ctx is cancelled; then it drains
// gracefully. Progress lines go to out.
func serve(ctx context.Context, c config, out io.Writer) error {
	if err := validate(c); err != nil {
		return err
	}
	a, err := loadModel(c.model, out)
	if err != nil {
		return err
	}
	// Boot is install minus the live comparisons: the same gate, then the
	// one constructor.
	monitor, err := server.NewCore(a, c.shards, nil)
	if err != nil {
		return err
	}

	// One shared event bus: the fleet publishes prediction/unknown/swap
	// events into it, the adapt flywheel adds lifecycle events, and the
	// server streams it on /v1/events.
	bus := events.NewBus()

	// Continual-learning flywheel: rejected windows buffer into a reservoir,
	// cluster into candidate families, retrain against the artifact's
	// recorded provenance, shadow-score against live traffic, and promote by
	// writing the candidate to the watched model path — the watcher (or, in
	// cluster mode, fleet-wide distribution) then performs the actual swap,
	// so promotion and a manual `cp new.wcc model.wcc` take the same path.
	var mgr *adapt.Manager
	if c.adapt {
		if a.Drift == nil {
			return fmt.Errorf("-adapt needs a drift calibration in the artifact (train with wcctrain -drift): without open-set rejection nothing feeds the buffer")
		}
		mgr, err = adapt.New(adapt.Config{
			FeatureDim:       adapt.FeatureDimFor(a.Meta.Sensors),
			MinSupport:       c.adaptMinSupport,
			Radius:           c.adaptRadius,
			Calibration:      a.Drift,
			ShadowMinWindows: c.adaptShadowMin,
			AutoPromote:      c.adaptAuto,
			Logf:             logf,
			Trainer:          adapt.NewProvenanceTrainer(a, logf),
			Events:           bus,
			Promote: func(candidate *artifact.Artifact) error {
				return artifact.Save(c.model, candidate)
			},
		})
		if err != nil {
			return err
		}
		monitor.SetAdaptObserver(mgr)
		fmt.Fprintf(out, "adapt flywheel on: min-support %d, shadow-min %d, auto-promote %v (drive via /v1/adapt)\n",
			c.adaptMinSupport, c.adaptShadowMin, c.adaptAuto)
	}

	scfg := server.Config{
		ClassNames: a.Meta.ClassNames,
		TickEvery:  c.tick,
		EvictAfter: c.evictAfter,
		Events:     bus,
		Adapt:      mgr,
		Logf:       logf,
	}
	// Either way a changed -model artifact enters through the server's one
	// installer; what differs is who drives it.
	watch := server.WatchConfig{Path: c.model, Every: c.modelPoll, Logf: logf}
	var (
		srv     *server.Server
		handler http.Handler
		node    *cluster.Node
	)
	if c.cluster == "" {
		scfg.Monitor = monitor
		if srv, err = server.New(scfg); err != nil {
			return err
		}
		handler, watch.Swap = srv.Handler(), srv.InstallFile
	} else {
		// Cluster mode: this process becomes one node of a replicated serving
		// fleet. Ingest routes by job hash (forwarded to the owning peer), job
		// reads redirect, and a changed artifact rolls out fleet-wide through
		// the two-phase prepare/commit control plane.
		if c.clusterDir == "" {
			c.clusterDir = filepath.Join(os.TempDir(), fmt.Sprintf("wcc-cluster-node%d", c.node))
		}
		node, err = cluster.New(cluster.Config{
			Self:  c.node,
			Peers: clusterPeers(c.cluster),
			Core:  monitor,
			Serve: scfg,
			Dir:   c.clusterDir,
			Logf:  logf,
		})
		if err != nil {
			return fmt.Errorf("cluster setup: %w", err)
		}
		srv, handler, watch.Swap = node.Server(), node.Handler(), node.DistributeFile
	}

	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	if c.modelPoll > 0 {
		go func() {
			defer close(watchDone)
			server.Watch(stopWatch, watch)
		}()
	} else {
		close(watchDone)
	}

	stopAdapt := make(chan struct{})
	adaptDone := make(chan struct{})
	if mgr != nil {
		go func() {
			defer close(adaptDone)
			mgr.Run(stopAdapt, c.adaptEvery)
		}()
	} else {
		close(adaptDone)
	}

	// Optional pprof sidecar: its own mux on its own listener, so profiling
	// never shares an address (or an exposure surface) with the public API.
	var debugSrv *http.Server
	if c.debugAddr != "" {
		dln, err := net.Listen("tcp", c.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: mux}
		fmt.Fprintf(out, "pprof debug listener on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "wccserve: debug listener: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return err
	}
	if node != nil {
		fmt.Fprintf(out, "cluster node %d of %d (artifact dir %s)\n", node.Self(), node.NumNodes(), c.clusterDir)
	}
	fmt.Fprintf(out, "serving HTTP API on http://%s (%dx%d windows, %d shards, tick %s)\n",
		ln.Addr(), a.Meta.Window, a.Meta.Sensors, monitor.NumShards(), c.tick)
	httpSrv := &http.Server{Handler: handler}
	// SSE streams hold their connections open indefinitely; ending them at
	// shutdown lets the graceful drain below complete instead of timing out.
	httpSrv.RegisterOnShutdown(srv.CloseStreams)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if node != nil {
		node.Start()
	}

	select {
	case err := <-serveErr:
		return err // Serve never returns nil before Shutdown
	case <-ctx.Done():
		fmt.Fprintln(out, "\nshutdown requested, draining...")
	}

	// ctx is already cancelled; the drain gets its own deadline.
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "wccserve: http shutdown: %v\n", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "wccserve: debug shutdown: %v\n", err)
		}
	}
	close(stopAdapt)
	<-adaptDone
	close(stopWatch)
	<-watchDone
	if node != nil {
		node.Stop()
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("final drain tick: %w", err)
	}
	fmt.Fprintf(out, "drained: %d samples ingested into %d jobs, %d classifications over %d ticks, %d swaps, %d evictions\n",
		monitor.SamplesIngested(), monitor.NumJobs(), monitor.Classifications(),
		monitor.Ticks(), monitor.Swaps(), monitor.Evictions())
	return nil
}
