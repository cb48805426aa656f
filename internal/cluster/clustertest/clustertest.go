// Package clustertest runs a real multi-node serving cluster inside one
// test process: N wccserve stacks (a fleet.Monitor under a cluster.Node, which
// builds its own server.Server) on loopback listeners, talking real HTTP
// through a fault-injecting transport. Everything runs under plain
// `go test` and `-race` — no containers, no sleeps standing in for
// synchronisation.
//
// The harness offers the failure levers the cluster tests need:
//
//   - Kill / Restart a node (the listener closes for real; a restart
//     rebinds the same address with a fresh process-equivalent stack);
//   - Partition a node (its peers' requests to it fail at the transport);
//   - Hold requests matching a URL substring (stall a replica mid-swap)
//     until released;
//   - StampArtifact: real `.wcc` artifacts whose models carry a readable
//     generation stamp in their class-0 probability, so a test can ask
//     "which generation served this prediction?" bit-exactly.
package clustertest

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/server"
)

// Options sizes a test cluster. Zero values pick test-friendly defaults.
type Options struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Window, Sensors give the fleet shape (defaults 6×3 — small enough
	// that a job classifies after a handful of samples).
	Window  int
	Sensors int
	// Scaler is the serving scaler; nil builds a deterministic synthetic
	// one (see NewScaler).
	Scaler *preprocess.StandardScaler
	// Model is the initial classifier on every node; nil builds a stamped
	// model with stamp 0.
	Model artifact.Model
	// Shards is each node's local shard count (default 2, so the
	// node-then-shard two-level routing is actually exercised).
	Shards int
	// Workers is each node's ingest worker count (default GOMAXPROCS, the
	// serving layer's).
	Workers int
	// Drift optionally enables open-set scoring on every node.
	Drift *drift.Calibration
	// RPCTimeout bounds control-plane calls (default 2s). Stall tests
	// that hold a prepare want it larger than the hold window.
	RPCTimeout time.Duration
}

// Every test cluster ticks every 2ms and pings every 25ms, and a peer
// is dead after two failed pings, so failure tests converge fast.
const (
	tickEvery      = 2 * time.Millisecond
	heartbeatEvery = 25 * time.Millisecond
	deadAfter      = 2
)

func (o *Options) fill() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Window <= 0 {
		o.Window = 6
	}
	if o.Sensors <= 0 {
		o.Sensors = 3
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 2 * time.Second
	}
	if o.Scaler == nil {
		o.Scaler = NewScaler(o.Window, o.Sensors)
	}
	if o.Model == nil {
		o.Model = StampModel(nil, o.Sensors, 0)
	}
}

// Member is one running node: its serving stack plus enough handles for a
// test to reach every layer.
type Member struct {
	ID      int
	URL     string
	Core    *fleet.Monitor
	Cluster *cluster.Node

	httpSrv *http.Server
	alive   bool
}

// Alive reports whether the member is currently running (not Killed).
func (m *Member) Alive() bool { return m.alive }

// Cluster is the running test cluster.
type Cluster struct {
	T     testing.TB
	Opts  Options
	Fault *FaultInjector
	URLs  []string

	dir     string
	members []*Member
}

// Start builds and starts an N-node cluster on loopback listeners. Every
// node registers cleanup via t.Cleanup, so tests may return without
// explicit teardown.
func Start(t testing.TB, opts Options) *Cluster {
	t.Helper()
	opts.fill()
	c := &Cluster{
		T:       t,
		Opts:    opts,
		Fault:   NewFaultInjector(),
		dir:     t.TempDir(),
		members: make([]*Member, opts.Nodes),
		URLs:    make([]string, opts.Nodes),
	}
	listeners := make([]net.Listener, opts.Nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("clustertest: listening for node %d: %v", i, err)
		}
		listeners[i] = ln
		c.URLs[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range listeners {
		c.startMember(i, ln)
	}
	t.Cleanup(c.Close)
	return c
}

// startMember boots one node's full stack on the given listener.
func (c *Cluster) startMember(id int, ln net.Listener) {
	c.T.Helper()
	o := c.Opts
	// Generation 0 is an in-memory artifact with no class names (see
	// StampClassNames), booted the way wccserve boots one.
	core, err := server.NewCore(&artifact.Artifact{
		Meta:   artifact.Metadata{Features: "cov", Window: o.Window, Sensors: o.Sensors},
		Scaler: o.Scaler,
		Drift:  o.Drift,
		Model:  o.Model,
	}, o.Shards)
	if err != nil {
		c.T.Fatalf("clustertest: node %d core: %v", id, err)
	}
	node, err := cluster.New(cluster.Config{
		Self:           id,
		Peers:          c.URLs,
		Core:           core,
		Serve:          server.Config{TickEvery: tickEvery, Workers: o.Workers},
		Dir:            filepath.Join(c.dir, fmt.Sprintf("node%d", id)),
		HeartbeatEvery: heartbeatEvery,
		DeadAfter:      deadAfter,
		RPCTimeout:     o.RPCTimeout,
		Transport:      c.Fault,
	})
	if err != nil {
		c.T.Fatalf("clustertest: node %d cluster: %v", id, err)
	}
	hs := &http.Server{Handler: node.Handler()}
	go hs.Serve(ln)
	node.Start()
	c.members[id] = &Member{
		ID:      id,
		URL:     c.URLs[id],
		Core:    core,
		Cluster: node,
		httpSrv: hs,
		alive:   true,
	}
}

// Member returns the node's handles (valid even while killed, pointing at
// the most recent incarnation).
func (c *Cluster) Member(i int) *Member { return c.members[i] }

// Kill stops node i like a crash seen from its peers: the listener and
// every open connection close, the background loops stop. Peer requests
// to it fail immediately; heartbeats mark it dead after DeadAfter rounds.
func (c *Cluster) Kill(i int) {
	c.T.Helper()
	m := c.members[i]
	if !m.alive {
		return
	}
	m.alive = false
	m.httpSrv.Close()
	m.Cluster.Stop()
	m.Cluster.Server().Close()
}

// Restart boots a fresh stack for node i on its original address — the
// process-restart scenario: empty registries, the boot-time model, gen 0.
// Convergence back to the fleet's live artifact is the anti-entropy
// layer's job, which tests assert via Settle.
func (c *Cluster) Restart(i int) {
	c.T.Helper()
	if c.members[i].alive {
		return
	}
	addr := strings.TrimPrefix(c.URLs[i], "http://")
	var ln net.Listener
	var err error
	// The closed port can linger briefly; rebinding retries over ~2s.
	for attempt := 0; attempt < 40; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		c.T.Fatalf("clustertest: rebinding %s for node %d: %v", addr, i, err)
	}
	c.startMember(i, ln)
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	for i, m := range c.members {
		if m != nil && m.alive {
			c.Kill(i)
		}
	}
}

// Settle polls cond every few milliseconds until it holds or the timeout
// expires, reporting whether it held.
func Settle(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// FaultInjector is an http.RoundTripper that injects failures between
// cluster nodes: partitions (requests to a host fail), holds (requests
// matching a URL substring block until released).
type FaultInjector struct {
	base http.RoundTripper

	mu      sync.Mutex
	blocked map[string]bool
	holds   []*holdRule
}

type holdRule struct {
	substr  string
	release chan struct{}
}

// NewFaultInjector wraps http.DefaultTransport.
func NewFaultInjector() *FaultInjector {
	return &FaultInjector{base: http.DefaultTransport, blocked: make(map[string]bool)}
}

// Partition makes every request to the URL's host fail at the transport,
// in both control and forwarding planes. Heal undoes it.
func (f *FaultInjector) Partition(url string) {
	f.mu.Lock()
	f.blocked[hostOf(url)] = true
	f.mu.Unlock()
}

// Heal removes a partition.
func (f *FaultInjector) Heal(url string) {
	f.mu.Lock()
	delete(f.blocked, hostOf(url))
	f.mu.Unlock()
}

// Hold blocks every future request whose URL contains substr until the
// returned release function is called (idempotent). A held request still
// honours its context, so client timeouts fire normally — exactly how a
// stalled replica looks to a swap coordinator.
func (f *FaultInjector) Hold(substr string) (release func()) {
	h := &holdRule{substr: substr, release: make(chan struct{})}
	f.mu.Lock()
	f.holds = append(f.holds, h)
	f.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			for i, cur := range f.holds {
				if cur == h {
					f.holds = append(f.holds[:i], f.holds[i+1:]...)
					break
				}
			}
			f.mu.Unlock()
			close(h.release)
		})
	}
}

func hostOf(url string) string {
	return strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
}

// RoundTrip applies the configured faults, then forwards to the real
// transport. All blocking happens outside the injector's lock.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	blocked := f.blocked[req.URL.Host]
	var wait chan struct{}
	full := req.URL.String()
	for _, h := range f.holds {
		if strings.Contains(full, h.substr) {
			wait = h.release
			break
		}
	}
	f.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("clustertest: host %s partitioned", req.URL.Host)
	}
	if wait != nil {
		select {
		case <-wait:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return f.base.RoundTrip(req)
}

// NewScaler builds a deterministic identity-ish scaler for the window
// shape: mean 0, stddev 1 for every flattened-window column, so sample
// values pass standardisation unchanged and tests reason in raw values.
func NewScaler(window, sensors int) *preprocess.StandardScaler {
	cols := window * sensors
	train := mat.New(2, cols)
	for j := 0; j < cols; j++ {
		// Two rows at ±1 around zero give exactly mean 0, stddev 1.
		train.Data[j] = 1
		train.Data[cols+j] = -1
	}
	var sc preprocess.StandardScaler
	if _, err := sc.FitTransform(train); err != nil {
		panic(err) // two finite rows cannot fail to fit
	}
	return &sc
}

// stampDenominator is the resolution of a model stamp: a stamp k in
// [0,127] becomes the exactly-representable class-0 probability k/128.
const stampDenominator = 128

// StampModel builds a classifier whose every prediction carries the stamp
// in its class-0 probability: a single-tree, no-bootstrap forest fit on a
// constant design matrix, so the tree is one leaf holding the class
// frequencies [k/128, 1-k/128]. Real forest, real artifact codec, fully
// deterministic — and 128 distinguishable generations. t may be nil (the
// builder cannot fail on valid stamps; invalid stamps panic).
func StampModel(t *testing.T, sensors, stamp int) *forest.Classifier {
	if t != nil {
		t.Helper()
	}
	if stamp < 0 || stamp >= stampDenominator {
		panic(fmt.Sprintf("clustertest: stamp %d outside [0,%d)", stamp, stampDenominator-1))
	}
	dim := preprocess.CovarianceDim(sensors)
	x := mat.New(stampDenominator, dim) // all zeros: nothing to split on
	y := make([]int, stampDenominator)
	for i := stamp; i < len(y); i++ {
		y[i] = 1
	}
	f := forest.New(forest.Config{NumTrees: 1, Bootstrap: false, Seed: 1})
	if err := f.Fit(x, y, 2); err != nil {
		panic(fmt.Sprintf("clustertest: fitting stamp model: %v", err))
	}
	return f
}

// StampClassNames is what a stamp artifact calls the stamp model's two
// classes. The names carry the stamp, and a test cluster boots with no
// names at all, so they show which artifact's metadata a node installed.
func StampClassNames(stamp int) []string {
	return []string{fmt.Sprintf("stamp-%d/a", stamp), fmt.Sprintf("stamp-%d/b", stamp)}
}

// StampArtifact writes a real `.wcc` artifact whose model carries the
// stamp (see StampModel), whose metadata names the classes after it (see
// StampClassNames), and which is servable by a fleet of the given shape.
// Distinct stamps produce distinct artifact CRC identities — the
// replication-convergence tests depend on that.
func StampArtifact(t *testing.T, dir string, window, sensors int, scaler *preprocess.StandardScaler, stamp int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("stamp-%03d.wcc", stamp))
	a := &artifact.Artifact{
		Meta: artifact.Metadata{
			Kind:       "forest",
			ClassNames: StampClassNames(stamp),
			Features:   "cov",
			Window:     window,
			Sensors:    sensors,
			Tool:       "clustertest",
		},
		Scaler: scaler,
		Model:  StampModel(t, sensors, stamp),
	}
	if err := artifact.Save(path, a); err != nil {
		t.Fatalf("clustertest: writing stamp artifact %d: %v", stamp, err)
	}
	return path
}

// StampOf recovers the stamp from a prediction's probabilities.
func StampOf(probs []float64) int {
	if len(probs) == 0 {
		return -1
	}
	return int(probs[0]*stampDenominator + 0.5)
}
