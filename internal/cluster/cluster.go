// Package cluster scales the serving plane from one process to N: a
// node-membership and routing layer in which every wccserve node owns a
// stable slice of the splitmix64 keyspace, a control plane whose frames
// name a `.wcc` artifact (generation + CRC identity) while every replica
// pulls the bytes over one route and converges on that identity, and a
// rolling fleet-wide swap protocol — prepare on all nodes, then commit —
// so no node ever serves a model generation some peer cannot.
//
// The layer deliberately reuses the single-process building blocks one
// level up:
//
//   - routing hashes job IDs with fleet.JobHash, the same splitmix64
//     finalizer the in-process shard router uses — the node from the
//     hash's high word (NodeOf), the shard within it from the hash modulo
//     the shard count, so the two placements stay independent;
//   - forwarded samples travel in the binary ingest framing of
//     internal/wire, the same frames POST /v1/ingest accepts, inside the
//     client's request;
//   - every node verifies its own copy of an artifact by
//     artifact.Identity, the same section-CRC fingerprint the hot-swap
//     watcher uses for change detection; identity equality across nodes IS
//     the convergence check;
//   - the prepare phase runs Server.ServableModel and commit calls
//     Server.Install — the gates and the installer a single process's
//     artifact watcher uses — so an artifact that cannot serve this fleet
//     is refused cluster-wide before any node installs it, and a node that
//     commits as a peer or by catch-up ends up exactly where the
//     coordinator does.
//
// Membership is heartbeat-based: every node pings every peer on a fixed
// cadence, marks a peer dead after DeadAfter consecutive failures, and
// alive again on the first success. Pings carry the sender's generation
// and artifact identity, so liveness probes double as anti-entropy
// advertisements: a node that learns an alive peer serves a newer
// generation fetches that peer's artifact and installs it through the
// same fetch/prepare/commit calls a coordinated swap makes on a peer —
// this is how a restarted node converges back to the fleet's live CRC
// without operator action.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/server"
)

// MaxNodes bounds the cluster size; the alive set is kept in one atomic
// word so the per-sample routing read is a single load.
const MaxNodes = 64

// Config describes one node's place in the cluster.
type Config struct {
	// Self is this node's ID — its index into Peers.
	Self int
	// Peers lists every node's base URL ("http://host:port"), indexed by
	// node ID; Peers[Self] names this node. Length is the cluster size,
	// fixed for the life of the node (at most MaxNodes).
	Peers []string
	// Core is the node's local serving core. The cluster layer routes and
	// forwards around it but never reaches into its shards.
	Core *fleet.Monitor
	// Serve configures the node's serving layer. New sets its Monitor to
	// Core and builds the server.
	Serve server.Config
	// Dir is the artifact staging directory: artifacts are persisted here
	// (one file per generation) before prepare loads them, and served from
	// here to peers that pull them.
	Dir string
	// HeartbeatEvery is the peer ping cadence (default 500ms).
	HeartbeatEvery time.Duration
	// DeadAfter is how many consecutive failed probes mark a peer dead
	// (default 3): failed pings, and forwarded ingest posts that never
	// reached the peer. The first successful ping marks it alive again.
	DeadAfter int
	// RPCTimeout bounds one control-plane round trip (default 5s). A
	// prepare held longer than this fails, which aborts the swap — the
	// torn-generation invariant prefers no new generation anywhere over a
	// partial one somewhere.
	RPCTimeout time.Duration
	// Transport, when non-nil, replaces the HTTP transport for every
	// control-plane and forwarding request — the fault-injection seam the
	// in-process cluster tests use to kill, partition and stall nodes.
	Transport http.RoundTripper
}

// stagedModel is a prepared-but-not-committed generation: decoded, gated,
// held ready. Commit installs it; abort drops it.
type stagedModel struct {
	gen      uint64
	identity string
	art      *artifact.Artifact
}

// Node is one cluster member, serving layer included. Build with New, mount
// Handler on a listener, then Start. All methods are safe for concurrent
// use.
type Node struct {
	cfg   Config
	self  int
	peers []string
	core  *fleet.Monitor
	// client carries every control-plane, artifact and forwarding request;
	// its transport is the fault-injection seam.
	client *http.Client
	// artifactCap is MaxArtifactBytes, a field so a test can reach the cap
	// without writing 128 MiB.
	artifactCap int64
	log         *slog.Logger // slog's default with this node's ID attached

	// aliveMask is the routing read: bit i set means node i is believed
	// alive. Owner loads it once per sample — no lock on the ingest path.
	aliveMask atomic.Uint64

	// mu guards the membership and swap state below. Nothing blocking —
	// no HTTP, no publish, no channel send — runs under it; handlers
	// snapshot under mu and do their I/O outside.
	mu        sync.Mutex
	alive     []bool
	failCount []int
	peerGen   []uint64
	peerIdent []string
	gen       uint64
	identity  string
	staged    *stagedModel

	// distSem serialises swap orchestration (local DistributeFile and
	// anti-entropy catch-up): capacity 1, try-acquire, so a second swap
	// while one is in flight fails fast instead of interleaving phases.
	distSem chan struct{}

	srv     *server.Server
	handler http.Handler

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once

	// counters for the wcc_cluster_* metrics series.
	forwarded       atomic.Uint64 // samples posted to their owners
	forwardErrors   atomic.Uint64 // forwarded samples rejected in the reply
	forwardReceived atomic.Uint64 // forwarded samples ingested for peers
	redirects       atomic.Uint64 // job reads 307-redirected to their owner
	replications    atomic.Uint64 // artifacts fetched (or staged locally) and persisted
	clusterSwaps    atomic.Uint64 // generations committed on this node
	clusterAborts   atomic.Uint64 // staged generations dropped
	heartbeats      atomic.Uint64 // pings sent
	heartbeatFails  atomic.Uint64 // pings failed
}

// New validates the configuration and builds the node whole: the serving
// layer over the core, and the cluster-aware handler — ownership routing
// included — over the serving layer. The server's ingest workers and tick
// loops run from here on; the cluster's heartbeat loop waits for Start.
func New(cfg Config) (*Node, error) {
	if cfg.Core == nil {
		return nil, errors.New("cluster: nil core")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: empty peer list")
	}
	if len(cfg.Peers) > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes exceed the %d-node limit", len(cfg.Peers), MaxNodes)
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: self %d out of range for %d peers", cfg.Self, len(cfg.Peers))
	}
	if cfg.Dir == "" {
		return nil, errors.New("cluster: empty staging dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating staging dir: %w", err)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	n := &Node{
		cfg:         cfg,
		self:        cfg.Self,
		peers:       append([]string(nil), cfg.Peers...),
		core:        cfg.Core,
		client:      &http.Client{Transport: transport, Timeout: cfg.RPCTimeout},
		artifactCap: MaxArtifactBytes,
		log:         slog.With("node", cfg.Self),
		alive:       make([]bool, len(cfg.Peers)),
		failCount:   make([]int, len(cfg.Peers)),
		peerGen:     make([]uint64, len(cfg.Peers)),
		peerIdent:   make([]string, len(cfg.Peers)),
		distSem:     make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	// A node starts optimistic: every peer is presumed alive until
	// DeadAfter heartbeats say otherwise, so boot-time routing matches the
	// steady state and the equivalence tests' keyspace split is stable
	// from the first sample.
	var mask uint64
	for i := range n.alive {
		n.alive[i] = true
		mask |= 1 << uint(i)
	}
	n.aliveMask.Store(mask)
	cfg.Serve.Monitor = n.core
	srv, err := server.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.handler = n.buildHandler(srv.Handler())
	return n, nil
}

// receive delivers one peer-forwarded sample into the local core — no
// ownership re-check, because re-routing a forwarded sample could loop
// during a membership disagreement; the forwarding node already decided
// ownership and the sample lands here exactly once.
func (n *Node) receive(jobID int, sample []float64) error {
	err := n.core.Ingest(jobID, sample)
	if err == nil {
		n.forwardReceived.Add(1)
	}
	return err
}

// Handler returns the cluster-aware HTTP handler: the server's routes plus
// the /cluster/v1 control plane, an extended /healthz, appended
// wcc_cluster_* metrics, and 307 redirects for job reads this node does
// not own.
func (n *Node) Handler() http.Handler { return n.handler }

// Server returns the node's serving layer, for the process that owns the
// listener to drain: CloseStreams at shutdown, Close after Stop.
func (n *Node) Server() *server.Server { return n.srv }

// Start launches the heartbeat loop.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go n.heartbeatLoop()
	})
}

// Stop ends the heartbeat loop and waits for it, and cuts short any wait an
// ingest request is in to resend a batch a peer throttled.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Self returns this node's ID.
func (n *Node) Self() int { return n.self }

// NumNodes returns the cluster size fixed at construction.
func (n *Node) NumNodes() int { return len(n.peers) }

// Gen returns the committed model generation (0 until the first
// cluster-wide swap commits here).
func (n *Node) Gen() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen
}

// Identity returns the committed artifact's CRC identity ("" until the
// first cluster-wide swap commits here). Identity equality across nodes
// is the replication-convergence check.
func (n *Node) Identity() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.identity
}

// NodeOf is the job's home in a cluster of the given size: the high word
// of the job's splitmix64 hash scaled onto the nodes. It is independent of
// the partition the owning node puts the job in (the hash modulo the shard
// count), so every node uses all of its partitions whatever the two counts
// share. Owner and wccload -cluster both place jobs by it.
func NodeOf(jobID, nodes int) int {
	return int((fleet.JobHash(jobID) >> 32) * uint64(nodes) >> 32)
}

// Owner returns the node that owns the job: its home (NodeOf), probed
// forward past nodes this node currently believes dead. With every node
// alive the mapping is the same pure function on every node, which is what
// keeps client-side routing (wccload -cluster) and server-side routing in
// agreement without coordination.
func (n *Node) Owner(jobID int) int {
	mask := n.aliveMask.Load()
	size := len(n.peers)
	start := NodeOf(jobID, size)
	for i := 0; i < size; i++ {
		node := (start + i) % size
		if mask&(1<<uint(node)) != 0 {
			return node
		}
	}
	// Every peer looks dead (a fully partitioned node): serve locally
	// rather than drop — the node is its own last resort.
	return n.self
}

// ForwardStats reports the forwarding counters: samples this node posted
// to their owners, those of them rejected in the reply, and forwarded
// samples this node ingested for peers. Once every ingest reply is written,
// the samples a fleet forwarded equal those its nodes received plus those
// rejected, unless a post's outcome was unknown.
func (n *Node) ForwardStats() (forwarded, errs, received uint64) {
	return n.forwarded.Load(), n.forwardErrors.Load(), n.forwardReceived.Load()
}

// Alive snapshots the liveness view, indexed by node ID.
func (n *Node) Alive() []bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]bool(nil), n.alive...)
}

// PeerStatus is one row of the membership table in the cluster block
// of /healthz.
type PeerStatus struct {
	Node int    `json:"node"`
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// Alive is this node's liveness belief about the peer.
	Alive bool `json:"alive"`
	// Gen and Identity are the peer's last advertised generation and
	// artifact identity (zero values until its first heartbeat lands).
	Gen      uint64 `json:"gen"`
	Identity string `json:"identity,omitempty"`
}

// Status is the cluster block of the extended /healthz payload.
type Status struct {
	Node  int `json:"node"`
	Nodes int `json:"nodes"`
	// Gen and Identity are this node's committed generation and artifact
	// identity.
	Gen      uint64 `json:"gen"`
	Identity string `json:"identity,omitempty"`
	// Converged reports whether every alive peer advertises this node's
	// generation and identity — the fleet serving one model.
	Converged bool `json:"converged"`
	// StagedGen is the prepared-but-uncommitted generation held by this
	// node (0 when nothing is staged) — visible so operators and tests can
	// watch a rolling swap sit between prepare and commit.
	StagedGen uint64 `json:"staged_gen,omitempty"`
	// SwapInFlight reports a rolling swap currently orchestrated or
	// caught up by this node.
	SwapInFlight bool         `json:"swap_in_flight,omitempty"`
	Peers        []PeerStatus `json:"peers"`
}

// Status snapshots the node's membership and convergence view.
func (n *Node) Status() Status {
	swapBusy := len(n.distSem) > 0
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		Node:         n.self,
		Nodes:        len(n.peers),
		Gen:          n.gen,
		Identity:     n.identity,
		Converged:    true,
		SwapInFlight: swapBusy,
		Peers:        make([]PeerStatus, len(n.peers)),
	}
	if n.staged != nil {
		st.StagedGen = n.staged.gen
	}
	for i, url := range n.peers {
		ps := PeerStatus{Node: i, URL: url, Alive: n.alive[i], Gen: n.peerGen[i], Identity: n.peerIdent[i]}
		if i == n.self {
			ps.Self = true
			ps.Gen = n.gen
			ps.Identity = n.identity
		}
		st.Peers[i] = ps
		if ps.Alive && (ps.Gen != n.gen || ps.Identity != n.identity) {
			st.Converged = false
		}
	}
	return st
}

// heartbeatLoop pings every peer on the configured cadence until Stop.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.heartbeat()
		}
	}
}

// heartbeat runs one ping round and then one anti-entropy check.
func (n *Node) heartbeat() {
	gen, ident := n.Gen(), n.Identity()
	for peer := range n.peers {
		if peer == n.self {
			continue
		}
		n.heartbeats.Add(1)
		reply, err := n.rpc(peer, pingPath, Frame{Node: n.self, Gen: gen, Identity: ident})
		if err != nil {
			n.heartbeatFails.Add(1)
			n.noteFailure(peer, err)
			continue
		}
		n.notePeer(peer, reply.Gen, reply.Identity)
	}
	n.catchUp()
}

// noteFailure records one failed probe; DeadAfter consecutive failures
// flip the peer to dead (with a membership event).
func (n *Node) noteFailure(peer int, err error) {
	n.mu.Lock()
	n.failCount[peer]++
	died := n.alive[peer] && n.failCount[peer] >= n.cfg.DeadAfter
	if died {
		n.alive[peer] = false
		n.storeAliveMaskLocked()
	}
	n.mu.Unlock()
	if died {
		n.log.Warn("cluster: peer marked dead", "peer", peer, "failed_probes", n.cfg.DeadAfter, "err", err)
		n.srv.Events().Publish(events.Event{Type: events.TypeMembership, Node: events.Intp(peer), Healthy: events.Boolp(false), Error: err.Error()})
	}
}

// notePeer records one successful probe (or an inbound ping — hearing
// from a peer proves it alive as surely as reaching it), refreshing the
// peer's advertised generation and identity.
func (n *Node) notePeer(peer int, gen uint64, ident string) {
	if peer < 0 || peer >= len(n.peers) || peer == n.self {
		return
	}
	n.mu.Lock()
	n.failCount[peer] = 0
	revived := !n.alive[peer]
	if revived {
		n.alive[peer] = true
		n.storeAliveMaskLocked()
	}
	n.peerGen[peer] = gen
	n.peerIdent[peer] = ident
	n.mu.Unlock()
	if revived {
		n.log.Info("cluster: peer alive again", "peer", peer)
		n.srv.Events().Publish(events.Event{Type: events.TypeMembership, Node: events.Intp(peer), Healthy: events.Boolp(true)})
	}
}

// storeAliveMaskLocked refreshes the routing mask; callers hold mu.
func (n *Node) storeAliveMaskLocked() {
	var mask uint64
	for i, a := range n.alive {
		if a || i == n.self {
			mask |= 1 << uint(i)
		}
	}
	n.aliveMask.Store(mask)
}

// catchUp is the anti-entropy pull: when an alive peer advertises a newer
// generation than this node serves, install it with the three calls a
// peer-driven swap makes here — fetch, applyPrepare, applyCommit — driven by
// this node instead of a coordinator. This is how a restarted node
// converges back to the fleet's live artifact CRC.
func (n *Node) catchUp() {
	n.mu.Lock()
	best, gen, ident := -1, n.gen, ""
	for i := range n.peers {
		if i != n.self && n.alive[i] && n.peerGen[i] > gen {
			best, gen, ident = i, n.peerGen[i], n.peerIdent[i]
		}
	}
	n.mu.Unlock()
	if best < 0 {
		return
	}
	select {
	case n.distSem <- struct{}{}:
	default:
		return // a swap is in flight; next round will re-check
	}
	defer func() { <-n.distSem }()
	if n.Gen() >= gen {
		return // a coordinator's commit landed while this round was pinging
	}
	err := n.fetch(best, gen, ident)
	if err == nil {
		_, err = n.applyPrepare(gen, ident)
	}
	if err == nil {
		err = n.applyCommit(gen, ident)
	}
	if err != nil {
		n.log.Warn("cluster: catch-up failed", "peer", best, "gen", gen, "err", err)
		return
	}
	n.log.Info("cluster: caught up", "gen", gen, "identity", ident, "peer", best)
	n.publishSwapPhase("caught-up", gen)
}
