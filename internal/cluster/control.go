package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/events"
)

// Rolling fleet-wide swap: DistributeFile pushes one artifact through
// three phases across every alive node —
//
//	replicate  every node persists the artifact bytes and answers with
//	           the CRC identity it computed from its own copy; a mismatch
//	           anywhere fails the phase (corruption in transit or on disk
//	           is caught before any node decodes a byte of it);
//	prepare    every node decodes its copy, runs Server.ServableModel — the
//	           whole gate Install runs, calibration fit included, so
//	           nothing commit checks is left unproven — and stages the
//	           artifact without serving it;
//	commit     only after EVERY node acked prepare does any node install,
//	           through the same Server.Install a local hot-swap ends in;
//	           a prepare failure or timeout anywhere aborts everywhere.
//
// The invariant the phases exist for: no node ever serves a generation
// some peer has not proven it can serve. A node that dies mid-swap is
// detected by the membership layer and skipped; it converges through
// anti-entropy when it returns. A node that merely stalls fails its
// prepare RPC by timeout, which aborts the whole swap — the fleet
// prefers staying on generation G everywhere over splitting between G
// and G+1.

// Control-plane route paths, shared by handlers and clients.
const (
	pingPath       = "/cluster/v1/ping"
	replicatePath  = "/cluster/v1/replicate"
	preparePath    = "/cluster/v1/swap/prepare"
	commitPath     = "/cluster/v1/swap/commit"
	abortPath      = "/cluster/v1/swap/abort"
	peerIngestPath = "/cluster/v1/ingest"
	artifactPath   = "/cluster/v1/artifact"
	infoPath       = "/cluster/v1/info"
)

// frameContentType is the control-frame media type.
const frameContentType = "application/x-wcc-cluster"

// genHeader and identHeader carry a served artifact's generation and
// identity on GET /cluster/v1/artifact responses.
const (
	genHeader   = "X-WCC-Generation"
	identHeader = "X-WCC-Identity"
)

// ErrSwapInFlight reports a DistributeFile refused because another swap
// (local or anti-entropy) is mid-flight on this node.
var ErrSwapInFlight = errors.New("cluster: a swap is already in flight")

// DistributeFile runs one rolling fleet-wide swap of the artifact at
// path: replicate to every alive node, prepare on all, then commit on
// all. It returns the artifact's metadata on success, and is what a
// cluster node's server.WatchConfig.Swap points at — the watcher detects
// the retrained artifact, the cluster installs it everywhere.
func (n *Node) DistributeFile(path string) (artifact.Metadata, error) {
	select {
	case n.distSem <- struct{}{}:
	default:
		return artifact.Metadata{}, ErrSwapInFlight
	}
	defer func() { <-n.distSem }()

	data, err := os.ReadFile(path)
	if err != nil {
		return artifact.Metadata{}, fmt.Errorf("cluster: reading artifact: %w", err)
	}
	return n.distribute(data)
}

// distribute is the three-phase orchestration over one artifact's bytes.
func (n *Node) distribute(data []byte) (artifact.Metadata, error) {
	n.mu.Lock()
	gen := n.gen + 1
	n.mu.Unlock()

	// Replicate to self first: the local copy's identity is the reference
	// every peer's copy must match.
	ident, err := n.applyReplicate(gen, "", data)
	if err != nil {
		return artifact.Metadata{}, fmt.Errorf("cluster: staging local copy: %w", err)
	}
	targets := n.aliveTargets()
	for _, peer := range targets {
		ack, err := n.rpc(peer, replicatePath, Frame{Type: MsgReplicate, Node: n.self, Gen: gen, Identity: ident, Artifact: data})
		if err != nil {
			return artifact.Metadata{}, fmt.Errorf("cluster: replicating gen %d to node %d: %w", gen, peer, err)
		}
		if ack.Identity != ident {
			return artifact.Metadata{}, fmt.Errorf("cluster: node %d persisted identity %q, want %q", peer, ack.Identity, ident)
		}
	}
	n.publishSwapPhase("replicated", gen)

	// Prepare on all — self included — before anything commits.
	meta, err := n.applyPrepare(gen, ident)
	if err != nil {
		n.abortAll(gen, targets)
		return artifact.Metadata{}, fmt.Errorf("cluster: preparing gen %d locally: %w", gen, err)
	}
	for _, peer := range targets {
		if _, err := n.rpc(peer, preparePath, Frame{Type: MsgPrepare, Node: n.self, Gen: gen, Identity: ident}); err != nil {
			n.abortAll(gen, targets)
			return artifact.Metadata{}, fmt.Errorf("cluster: preparing gen %d on node %d: %w", gen, peer, err)
		}
	}
	n.publishSwapPhase("prepared", gen)

	// Every node has proven it can serve gen — prepare ran the very gate
	// commit's Install runs — so commit rolls through the fleet. Peers first, coordinator last, so the coordinator's own
	// generation (the one the watcher and anti-entropy compare against)
	// only advances once the roll is complete. A peer that dies between
	// its prepare ack and its commit converges by anti-entropy on return.
	for _, peer := range targets {
		if _, err := n.rpc(peer, commitPath, Frame{Type: MsgCommit, Node: n.self, Gen: gen}); err != nil {
			n.logf("cluster: commit of gen %d on node %d failed (will converge by anti-entropy): %v", gen, peer, err)
		}
	}
	if err := n.applyCommit(gen); err != nil {
		return artifact.Metadata{}, fmt.Errorf("cluster: committing gen %d locally: %w", gen, err)
	}
	n.publishSwapPhase("committed", gen)
	return meta, nil
}

// aliveTargets snapshots the alive peers (excluding self) a swap must
// cover.
func (n *Node) aliveTargets() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	for i := range n.peers {
		if i != n.self && n.alive[i] {
			out = append(out, i)
		}
	}
	return out
}

// abortAll drops the staged generation everywhere after a failed prepare
// phase, best-effort: an unreachable peer's stale staged model is
// harmless — commit for that generation will never be sent.
func (n *Node) abortAll(gen uint64, targets []int) {
	n.applyAbort(gen)
	for _, peer := range targets {
		if _, err := n.rpc(peer, abortPath, Frame{Type: MsgAbort, Node: n.self, Gen: gen}); err != nil {
			n.logf("cluster: aborting gen %d on node %d: %v", gen, peer, err)
		}
	}
	n.publishSwapPhase("aborted", gen)
}

// publishSwapPhase narrates one rolling-swap phase on the push plane.
func (n *Node) publishSwapPhase(phase string, gen uint64) {
	n.srv.Events().Publish(events.Event{Type: events.TypeClusterSwap, Phase: phase, Node: events.Intp(n.self)})
	n.logf("cluster: gen %d %s", gen, phase)
}

// stagePath is the staging file for one generation, deterministic so
// replicate and prepare agree without passing paths over the wire.
func (n *Node) stagePath(gen uint64) string {
	return filepath.Join(n.cfg.Dir, fmt.Sprintf("gen-%08d.wcc", gen))
}

// applyReplicate persists one replicated artifact atomically (temp file +
// rename, the artifact.Save discipline, so a concurrent prepare never
// reads a torn file) and returns the identity computed from the written
// copy. A non-empty wantIdent that differs from the computed identity is
// a transit/disk corruption error.
func (n *Node) applyReplicate(gen uint64, wantIdent string, data []byte) (string, error) {
	path := n.stagePath(gen)
	tmp, err := os.CreateTemp(n.cfg.Dir, ".gen-*.tmp")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return "", err
	}
	ident, err := artifact.Identity(path)
	if err != nil {
		return "", fmt.Errorf("fingerprinting persisted artifact: %w", err)
	}
	if wantIdent != "" && ident != wantIdent {
		return ident, fmt.Errorf("persisted identity %q differs from coordinator's %q", ident, wantIdent)
	}
	n.replications.Add(1)
	return ident, nil
}

// applyPrepare decodes the staged artifact for gen, runs the serving gate
// (everything Install will check), and holds the model ready without
// installing it.
func (n *Node) applyPrepare(gen uint64, wantIdent string) (artifact.Metadata, error) {
	path := n.stagePath(gen)
	ident, err := artifact.Identity(path)
	if err != nil {
		return artifact.Metadata{}, fmt.Errorf("no replicated artifact for gen %d: %w", gen, err)
	}
	if wantIdent != "" && ident != wantIdent {
		return artifact.Metadata{}, fmt.Errorf("staged identity %q differs from prepare's %q", ident, wantIdent)
	}
	a, err := artifact.Load(path)
	if err != nil {
		return artifact.Metadata{}, err
	}
	if _, err := n.srv.ServableModel(a); err != nil {
		return artifact.Metadata{}, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if gen <= n.gen {
		return artifact.Metadata{}, fmt.Errorf("gen %d is not newer than committed gen %d", gen, n.gen)
	}
	n.staged = &stagedModel{gen: gen, identity: ident, path: path, art: a}
	return a.Meta, nil
}

// applyCommit installs the staged generation through the server's one
// installer — coordinator, peer commit and catch-up alike. The
// installation happens outside the node's state lock — the core's own
// swap lock orders it against ticks — and the generation bookkeeping flips
// after the install succeeds.
func (n *Node) applyCommit(gen uint64) error {
	n.mu.Lock()
	st := n.staged
	if st == nil || st.gen != gen {
		n.mu.Unlock()
		if st == nil {
			return fmt.Errorf("no staged model for gen %d (prepare first)", gen)
		}
		return fmt.Errorf("staged gen %d does not match commit gen %d", st.gen, gen)
	}
	n.staged = nil
	n.mu.Unlock()

	if err := n.srv.Install(st.art); err != nil {
		return err
	}
	n.mu.Lock()
	n.gen = st.gen
	n.identity = st.identity
	n.artPath = st.path
	n.mu.Unlock()
	n.clusterSwaps.Add(1)
	return nil
}

// applyAbort drops the staged generation, if it matches.
func (n *Node) applyAbort(gen uint64) {
	n.mu.Lock()
	dropped := n.staged != nil && n.staged.gen == gen
	if dropped {
		n.staged = nil
	}
	n.mu.Unlock()
	if dropped {
		n.clusterAborts.Add(1)
	}
}

// pullArtifact is the anti-entropy fetch-and-install: GET the peer's
// committed artifact and install it locally through the same
// replicate/prepare/commit path a coordinated swap uses. Callers hold
// the distribute semaphore.
func (n *Node) pullArtifact(peer int) error {
	resp, err := n.client.Get(n.peers[peer] + artifactPath)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	gen, err := strconv.ParseUint(resp.Header.Get(genHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("parsing %s header: %w", genHeader, err)
	}
	wantIdent := resp.Header.Get(identHeader)
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameArtifactBytes+1))
	if err != nil {
		return err
	}
	if len(data) > MaxFrameArtifactBytes {
		return fmt.Errorf("artifact exceeds the %d-byte cap", MaxFrameArtifactBytes)
	}
	if n.Gen() >= gen {
		return nil // converged (or passed) while the fetch was in flight
	}
	ident, err := n.applyReplicate(gen, wantIdent, data)
	if err != nil {
		return err
	}
	if _, err := n.applyPrepare(gen, ident); err != nil {
		return err
	}
	if err := n.applyCommit(gen); err != nil {
		return err
	}
	n.logf("cluster: caught up to gen %d (identity %s) from node %d", gen, ident, peer)
	n.publishSwapPhase("caught-up", gen)
	return nil
}

// rpc posts one control frame to a peer and decodes the ack. A non-OK
// ack surfaces as an error carrying the peer's reason.
func (n *Node) rpc(peer int, path string, f Frame) (Frame, error) {
	body, err := AppendFrame(f)
	if err != nil {
		return Frame{}, err
	}
	resp, err := n.client.Post(n.peers[peer]+path, frameContentType, bytes.NewReader(body))
	if err != nil {
		return Frame{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return Frame{}, fmt.Errorf("node %d: HTTP %d: %s", peer, resp.StatusCode, bytes.TrimSpace(msg))
	}
	ack, err := DecodeFrame(io.LimitReader(resp.Body, MaxFrameArtifactBytes+1024))
	if err != nil {
		return Frame{}, fmt.Errorf("node %d: %w", peer, err)
	}
	if !ack.OK {
		return ack, fmt.Errorf("node %d refused %s: %s", peer, f.Type, ack.Err)
	}
	return ack, nil
}
