package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"repro/internal/server"
	"repro/internal/wire"
)

// maxControlBody caps one control-plane request body: the frame overhead
// plus the largest artifact a replicate may carry.
const maxControlBody = MaxFrameArtifactBytes + 1024

// buildHandler assembles the cluster-aware route table over the serving
// layer's handler:
//
//	POST /cluster/v1/ping          heartbeat + anti-entropy advertisement
//	POST /cluster/v1/replicate     persist a pushed artifact, ack its CRC identity
//	POST /cluster/v1/swap/prepare  decode + gate + stage a generation
//	POST /cluster/v1/swap/commit   install the staged generation
//	POST /cluster/v1/swap/abort    drop the staged generation
//	POST /cluster/v1/ingest        peer-forwarded samples (binary framing)
//	GET  /cluster/v1/artifact      committed artifact bytes, for catch-up
//	GET  /cluster/v1/info          membership/convergence snapshot (JSON)
//
// plus three interceptions of the inner API: /healthz grows the cluster
// membership/routing block, /metrics grows the wcc_cluster_* series, and
// job-scoped reads (GET prediction, DELETE job) this node does not own
// answer 307 with the owner's URL in Location — ingest is forwarded
// server-side, but reads redirect, because a read proxied through the
// wrong node would double every read's latency for no benefit.
func (n *Node) buildHandler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pingPath, n.handlePing)
	mux.HandleFunc("POST "+replicatePath, n.handleReplicate)
	mux.HandleFunc("POST "+preparePath, n.handlePrepare)
	mux.HandleFunc("POST "+commitPath, n.handleCommit)
	mux.HandleFunc("POST "+abortPath, n.handleAbort)
	mux.HandleFunc("POST "+peerIngestPath, n.handlePeerIngest)
	mux.HandleFunc("GET "+artifactPath, n.handleArtifact)
	mux.HandleFunc("GET "+infoPath, n.handleInfo)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		n.writeClusterMetrics(w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/prediction", n.redirectOrServe(inner))
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.redirectOrServe(inner))
	mux.Handle("/", inner)
	return mux
}

// redirectOrServe intercepts a job-scoped route: a job this node owns is
// served locally, anything else answers 307 Temporary Redirect with the
// owner's URL, preserving method and path. Clients that follow redirects
// (Go's default) land on the owner transparently; wccload counts them.
func (n *Node) redirectOrServe(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			inner.ServeHTTP(w, r) // let the API layer shape the 400
			return
		}
		owner := n.Owner(id)
		if owner == n.self {
			inner.ServeHTTP(w, r)
			return
		}
		n.redirects.Add(1)
		http.Redirect(w, r, n.peers[owner]+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}
}

// decodeControlFrame reads and validates one control frame from a
// request, writing the HTTP error itself on failure.
func (n *Node) decodeControlFrame(w http.ResponseWriter, r *http.Request) (Frame, bool) {
	f, err := DecodeFrame(io.LimitReader(r.Body, maxControlBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return Frame{}, false
	}
	if f.Node >= len(n.peers) {
		http.Error(w, fmt.Sprintf("cluster: sender node %d out of range for %d-node cluster", f.Node, len(n.peers)), http.StatusBadRequest)
		return Frame{}, false
	}
	return f, true
}

// writeAck answers one control request with an ack frame.
func (n *Node) writeAck(w http.ResponseWriter, ack Frame) {
	ack.Type = MsgAck
	ack.Node = n.self
	body, err := AppendFrame(ack)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", frameContentType)
	w.Write(body)
}

// handlePing answers a heartbeat: record the sender as alive (hearing
// from a peer proves liveness in both directions) along with its
// advertised generation, and reply with this node's own state.
func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	f, ok := n.decodeControlFrame(w, r)
	if !ok {
		return
	}
	if f.Type != MsgPing {
		http.Error(w, fmt.Sprintf("cluster: %s frame on the ping route", f.Type), http.StatusBadRequest)
		return
	}
	n.notePeer(f.Node, f.Gen, f.Identity)
	n.writeAck(w, Frame{OK: true, Gen: n.Gen(), Identity: n.Identity()})
}

// handleReplicate persists a pushed artifact and acks with the identity
// computed from the persisted copy — the coordinator compares it to its
// own, so corruption in transit or on disk fails the replicate phase.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	f, ok := n.decodeControlFrame(w, r)
	if !ok {
		return
	}
	if f.Type != MsgReplicate || len(f.Artifact) == 0 {
		http.Error(w, "cluster: replicate needs a MsgReplicate frame with an artifact payload", http.StatusBadRequest)
		return
	}
	ident, err := n.applyReplicate(f.Gen, f.Identity, f.Artifact)
	if err != nil {
		n.writeAck(w, Frame{OK: false, Gen: f.Gen, Identity: ident, Err: err.Error()})
		return
	}
	n.writeAck(w, Frame{OK: true, Gen: f.Gen, Identity: ident})
}

// handlePrepare stages a replicated generation behind the serving
// compatibility gates. Nothing new is served until commit.
func (n *Node) handlePrepare(w http.ResponseWriter, r *http.Request) {
	f, ok := n.decodeControlFrame(w, r)
	if !ok {
		return
	}
	if f.Type != MsgPrepare {
		http.Error(w, fmt.Sprintf("cluster: %s frame on the prepare route", f.Type), http.StatusBadRequest)
		return
	}
	if _, err := n.applyPrepare(f.Gen, f.Identity); err != nil {
		n.writeAck(w, Frame{OK: false, Gen: f.Gen, Err: err.Error()})
		return
	}
	n.writeAck(w, Frame{OK: true, Gen: f.Gen, Identity: f.Identity})
}

// handleCommit installs the staged generation.
func (n *Node) handleCommit(w http.ResponseWriter, r *http.Request) {
	f, ok := n.decodeControlFrame(w, r)
	if !ok {
		return
	}
	if f.Type != MsgCommit {
		http.Error(w, fmt.Sprintf("cluster: %s frame on the commit route", f.Type), http.StatusBadRequest)
		return
	}
	if err := n.applyCommit(f.Gen); err != nil {
		n.writeAck(w, Frame{OK: false, Gen: f.Gen, Err: err.Error()})
		return
	}
	n.writeAck(w, Frame{OK: true, Gen: f.Gen, Identity: n.Identity()})
}

// handleAbort drops the staged generation.
func (n *Node) handleAbort(w http.ResponseWriter, r *http.Request) {
	f, ok := n.decodeControlFrame(w, r)
	if !ok {
		return
	}
	if f.Type != MsgAbort {
		http.Error(w, fmt.Sprintf("cluster: %s frame on the abort route", f.Type), http.StatusBadRequest)
		return
	}
	n.applyAbort(f.Gen)
	n.writeAck(w, Frame{OK: true, Gen: f.Gen})
}

// peerIngestResponse is the forwarded-ingest accounting.
type peerIngestResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// handlePeerIngest ingests peer-forwarded samples directly into the local
// core — no ownership re-check, because re-routing a forwarded sample
// could loop during a membership disagreement; the forwarding node
// already decided ownership and the sample lands here exactly once. The
// body is capped where the public ingest route's is by default.
func (n *Node) handlePeerIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, server.DefaultMaxBodyBytes+1))
	if err != nil {
		http.Error(w, "cluster: reading forwarded batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > server.DefaultMaxBodyBytes {
		http.Error(w, fmt.Sprintf("cluster: forwarded batch exceeds %d bytes", server.DefaultMaxBodyBytes), http.StatusRequestEntityTooLarge)
		return
	}
	dec := wire.NewIngestDecoder(body)
	var resp peerIngestResponse
	for {
		rec, ok := dec.Next()
		if !ok {
			break
		}
		if rec.Err != nil {
			resp.Rejected++
			continue
		}
		if err := n.core.Ingest(int(rec.Job), rec.Values); err != nil {
			resp.Rejected++
			continue
		}
		resp.Accepted++
	}
	if err := dec.Err(); err != nil {
		// Framing broke: the prefix boundaries after the break are
		// untrustworthy, so the remainder of the batch was not decoded.
		http.Error(w, "cluster: forwarded batch framing: "+err.Error(), http.StatusBadRequest)
		return
	}
	n.forwardReceived.Add(uint64(resp.Accepted))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleArtifact serves the committed artifact's bytes with its
// generation and identity in headers — the anti-entropy fetch a
// rejoining node converges from.
func (n *Node) handleArtifact(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	path, gen, ident := n.artPath, n.gen, n.identity
	n.mu.Unlock()
	if path == "" {
		http.Error(w, "cluster: no committed artifact on this node yet", http.StatusNotFound)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		http.Error(w, "cluster: reading committed artifact: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(genHeader, strconv.FormatUint(gen, 10))
	w.Header().Set(identHeader, ident)
	w.Write(data)
}

// handleInfo serves the membership/convergence snapshot as JSON.
func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.Status())
}

// HealthResponse is the cluster-extended /healthz payload: the serving
// layer's health block with the cluster's membership, generation and
// routing view alongside.
type HealthResponse struct {
	server.HealthResponse
	Cluster Status `json:"cluster"`
}

// handleHealthz extends the serving layer's health read with the cluster
// block. The status code follows the inner health (503 when degraded);
// an unconverged cluster is visible but not unhealthy — convergence is
// eventual by design while a swap rolls or a node catches up.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{HealthResponse: n.srv.Health(), Cluster: n.Status()}
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// writeClusterMetrics appends the wcc_cluster_* series to a /metrics
// response already written by the serving layer, in the same exposition.
func (n *Node) writeClusterMetrics(w io.Writer) {
	st := n.Status()
	mw := server.Metrics{W: w}
	mw.Gauge("wcc_cluster_node", "This node's ID.", float64(st.Node))
	mw.Gauge("wcc_cluster_nodes", "Cluster size fixed at boot.", float64(st.Nodes))
	mw.Gauge("wcc_cluster_generation", "Model generation committed on this node.", float64(st.Gen))
	mw.Gauge("wcc_cluster_converged", "1 when every alive peer advertises this node's generation and artifact identity.", boolMetric(st.Converged))
	mw.Family("wcc_cluster_peer_alive", "This node's liveness belief about each node.", "gauge")
	for _, p := range st.Peers {
		fmt.Fprintf(w, "wcc_cluster_peer_alive{node=\"%d\"} %g\n", p.Node, boolMetric(p.Alive))
	}
	mw.Family("wcc_cluster_peer_generation", "Each node's last advertised model generation.", "gauge")
	for _, p := range st.Peers {
		fmt.Fprintf(w, "wcc_cluster_peer_generation{node=\"%d\"} %d\n", p.Node, p.Gen)
	}
	mw.Counter("wcc_cluster_forwarded_samples_total", "Samples handed to a peer's forwarding queue.", n.forwarded.Load())
	mw.Counter("wcc_cluster_forward_dropped_total", "Samples rejected by a full forwarding queue.", n.forwardDropped.Load())
	mw.Counter("wcc_cluster_forward_errors_total", "Samples lost to failed forwarded POSTs.", n.forwardErrors.Load())
	mw.Counter("wcc_cluster_forward_received_total", "Forwarded samples this node ingested for peers.", n.forwardReceived.Load())
	mw.Counter("wcc_cluster_redirects_total", "Job reads answered 307 to their owner.", n.redirects.Load())
	mw.Counter("wcc_cluster_replications_total", "Artifacts persisted by the replicate phase.", n.replications.Load())
	mw.Counter("wcc_cluster_swaps_total", "Generations committed on this node.", n.clusterSwaps.Load())
	mw.Counter("wcc_cluster_aborts_total", "Staged generations dropped by an abort.", n.clusterAborts.Load())
	mw.Counter("wcc_cluster_heartbeats_total", "Heartbeat pings sent.", n.heartbeats.Load())
	mw.Counter("wcc_cluster_heartbeat_failures_total", "Heartbeat pings that failed.", n.heartbeatFails.Load())
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
