package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/events"
)

// Rolling fleet-wide swap (DESIGN.md §14): DistributeFile takes one
// artifact through two RPC rounds across every alive node. Control frames
// only name the artifact (generation + identity); its bytes move one way,
// by fetch —
//
//	stage      the coordinator persists the file into its own staging dir
//	           and fingerprints that copy;
//	prepare    the coordinator first — what it refuses never leaves it —
//	           then every peer: pull the artifact from the coordinator,
//	           verify the identity of the node's own copy before decoding a
//	           byte of it, run Server.ServableModel (the whole gate Install
//	           runs, so nothing commit checks is left unproven) and stage
//	           it without serving it;
//	commit     only after EVERY node acked prepare does any node install,
//	           through the same Server.Install a local hot-swap ends in.
//
// Anti-entropy catch-up is the three calls a peer makes — fetch,
// applyPrepare, applyCommit — driven by the node itself; pull is the one
// transport because catch-up cannot be pushed. The invariant: no node ever
// serves a generation some peer has not proven it can serve. A node that
// dies mid-swap is skipped and converges by anti-entropy on return; one
// that stalls, refuses, or cannot reach the coordinator back fails its
// prepare, which aborts everywhere — generation G on every node beats a
// fleet split between G and G+1.

// Control-plane route paths, shared by handlers and clients.
const (
	pingPath       = "/cluster/v1/ping"
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
// identity on artifact responses.
const (
	genHeader   = "X-WCC-Generation"
	identHeader = "X-WCC-Identity"
)

// MaxArtifactBytes caps the artifact one fetch will persist. Far above any
// real .wcc (the smoke models are ~100 KiB) and far below anything that
// could hurt the disk.
const MaxArtifactBytes = 1 << 27

// ErrSwapInFlight reports a DistributeFile refused because another swap
// (local or anti-entropy) is mid-flight on this node.
var ErrSwapInFlight = errors.New("cluster: a swap is already in flight")

// DistributeFile runs one rolling fleet-wide swap of the artifact at
// path: stage it here, prepare on all, then commit on all. It returns the
// artifact's metadata on success, and is what a cluster node's
// server.WatchConfig.Swap points at — the watcher detects the retrained
// artifact, the cluster installs it everywhere.
func (n *Node) DistributeFile(path string) (artifact.Metadata, error) {
	select {
	case n.distSem <- struct{}{}:
	default:
		return artifact.Metadata{}, ErrSwapInFlight
	}
	defer func() { <-n.distSem }()
	return n.distribute(path)
}

// distribute is the orchestration: stage → prepare self → prepare peers
// (each pulls) → commit peers → commit self.
func (n *Node) distribute(path string) (artifact.Metadata, error) {
	gen := n.Gen() + 1
	src, err := os.Open(path)
	if err != nil {
		return artifact.Metadata{}, fmt.Errorf("cluster: reading artifact: %w", err)
	}
	ident, err := n.persist(gen, "", src)
	src.Close()
	if err != nil {
		return artifact.Metadata{}, fmt.Errorf("cluster: staging local copy: %w", err)
	}

	// Prepare on all before anything commits, self first: what this node
	// refuses, no peer is asked to pull.
	meta, err := n.applyPrepare(gen, ident)
	if err != nil {
		n.abortAll(gen, nil)
		return artifact.Metadata{}, fmt.Errorf("cluster: preparing gen %d locally: %w", gen, err)
	}
	targets := n.aliveTargets()
	for _, peer := range targets {
		if _, err := n.rpc(peer, preparePath, Frame{Type: MsgPrepare, Node: n.self, Gen: gen, Identity: ident}); err != nil {
			n.abortAll(gen, targets)
			return artifact.Metadata{}, fmt.Errorf("cluster: preparing gen %d on node %d: %w", gen, peer, err)
		}
	}
	n.publishSwapPhase("prepared", gen)

	// Every node has proven it can serve gen — prepare ran the very gate
	// commit's Install runs — so commit rolls through the fleet. Peers first,
	// coordinator last, so the coordinator's own generation (the one the
	// watcher and anti-entropy compare against) only advances once the roll
	// is complete. A peer that dies between its prepare ack and its commit
	// converges by anti-entropy on return.
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
// the node that serves it and the node that prepares from it agree without
// passing paths over the wire.
func (n *Node) stagePath(gen uint64) string {
	return filepath.Join(n.cfg.Dir, fmt.Sprintf("gen-%08d.wcc", gen))
}

// fetch is the one way artifact bytes reach this node from another: GET
// the peer's staged-or-committed file for gen and persist it. A copy with
// the wanted identity already in staging (an aborted roll retried, a
// restart over the same directory) is not fetched again.
func (n *Node) fetch(from int, gen uint64, ident string) error {
	if have, err := artifact.Identity(n.stagePath(gen)); err == nil && have == ident {
		return nil
	}
	resp, err := n.client.Get(fmt.Sprintf("%s%s?gen=%d", n.peers[from], artifactPath, gen))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("node %d: HTTP %d: %s", from, resp.StatusCode, bytes.TrimSpace(body))
	}
	_, err = n.persist(gen, ident, resp.Body)
	return err
}

// persist streams one artifact into the staging file for gen and returns
// the identity computed from the written copy. The copy lands under a
// temporary name and is renamed only once it is whole, under the size cap
// and — when want is non-empty — fingerprinted as want, so prepare never
// reads a torn file and a copy corrupted in transit never reaches staging.
func (n *Node) persist(gen uint64, want string, r io.Reader) (string, error) {
	tmp, err := os.CreateTemp(n.cfg.Dir, ".gen-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // gone already once renamed
	size, err := io.Copy(tmp, io.LimitReader(r, n.artifactCap+1))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if size > n.artifactCap {
		return "", fmt.Errorf("artifact exceeds the %d-byte cap", n.artifactCap)
	}
	ident, err := artifact.Identity(tmp.Name())
	if err != nil {
		return "", fmt.Errorf("fingerprinting persisted artifact: %w", err)
	}
	if want != "" && ident != want {
		return "", fmt.Errorf("persisted identity %q differs from the wanted %q", ident, want)
	}
	if err := os.Rename(tmp.Name(), n.stagePath(gen)); err != nil {
		return "", err
	}
	n.replications.Add(1)
	return ident, nil
}

// applyPrepare decodes the staged artifact for gen — once its identity is
// the one asked for — runs the serving gate (everything Install will
// check), and holds the model ready without installing it.
func (n *Node) applyPrepare(gen uint64, wantIdent string) (artifact.Metadata, error) {
	path := n.stagePath(gen)
	ident, err := artifact.Identity(path)
	if err != nil {
		return artifact.Metadata{}, fmt.Errorf("no staged artifact for gen %d: %w", gen, err)
	}
	if ident != wantIdent {
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
	n.staged = &stagedModel{gen: gen, identity: ident, art: a}
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
	ack, err := DecodeFrame(resp.Body)
	if err != nil {
		return Frame{}, fmt.Errorf("node %d: %w", peer, err)
	}
	if !ack.OK {
		return ack, fmt.Errorf("node %d refused %s: %s", peer, f.Type, ack.Err)
	}
	return ack, nil
}
