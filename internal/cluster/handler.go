package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/server"
)

// buildHandler assembles the cluster-aware route table over the serving
// layer's handler:
//
//	POST /cluster/v1/ping          heartbeat + anti-entropy advertisement
//	POST /cluster/v1/swap/prepare  pull + decode + gate + stage a generation
//	POST /cluster/v1/swap/commit   install the staged generation
//	POST /cluster/v1/swap/abort    drop the staged generation
//	POST /cluster/v1/ingest        peer-forwarded samples
//	GET  /cluster/v1/artifact      a staged or committed generation's bytes (?gen=)
//	GET  /cluster/v1/info          membership/convergence snapshot (JSON)
//
// plus four interceptions of the inner API: POST /v1/ingest delivers each
// sample by job ownership (n.route), /healthz grows the cluster
// membership/routing block, /metrics grows the wcc_cluster_* series, and
// job-scoped reads (GET prediction, DELETE job) this node does not own
// answer 307 with the owner's URL in Location — ingest is forwarded
// server-side, but reads redirect, because a read proxied through the
// wrong node would double every read's latency for no benefit.
//
// Both ingest routes are the serving layer's one ingest pipeline
// (Server.IngestHandler) with a different destination, so a forwarded batch
// meets the framing, admission, accounting and 429 a public one does.
func (n *Node) buildHandler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	// Hearing from a peer proves liveness in both directions: record the
	// sender alive with its advertised generation, answer with our own.
	mux.HandleFunc("POST "+pingPath, n.control(MsgPing, func(f Frame) (Frame, error) {
		n.notePeer(f.Node, f.Gen, f.Identity)
		return Frame{Gen: n.Gen(), Identity: n.Identity()}, nil
	}))
	// Prepare pulls the named artifact from the sender, then stages it
	// behind the serving gates; nothing new is served until commit installs
	// it, and abort drops it. A sender this node cannot reach back fails the
	// prepare, and with it the roll.
	mux.HandleFunc("POST "+preparePath, n.control(MsgPrepare, func(f Frame) (Frame, error) {
		err := n.fetch(f.Node, f.Gen, f.Identity)
		if err == nil {
			_, err = n.applyPrepare(f.Gen, f.Identity)
		}
		return Frame{Gen: f.Gen, Identity: f.Identity}, err
	}))
	mux.HandleFunc("POST "+commitPath, n.control(MsgCommit, func(f Frame) (Frame, error) {
		err := n.applyCommit(f.Gen)
		return Frame{Gen: f.Gen, Identity: n.Identity()}, err
	}))
	mux.HandleFunc("POST "+abortPath, n.control(MsgAbort, func(f Frame) (Frame, error) {
		n.applyAbort(f.Gen)
		return Frame{Gen: f.Gen}, nil
	}))
	mux.Handle("POST /v1/ingest", n.srv.IngestHandler(n.route))
	mux.Handle("POST "+peerIngestPath, n.srv.IngestHandler(n.receive))
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

// control is the one control-plane handler: decode and validate the frame
// — which is all the body may hold, MaxFrameBytes at most — require the
// route's message type, apply, and answer with an ack frame built from
// apply's reply — OK when it returned no error, its text in Err otherwise.
func (n *Node) control(want MsgType, apply func(Frame) (Frame, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := http.MaxBytesReader(w, r.Body, MaxFrameBytes)
		f, err := DecodeFrame(body)
		extra, _ := io.Copy(io.Discard, body) // reads up to the cap, keeps nothing
		switch {
		case err != nil:
		case extra > 0:
			err = fmt.Errorf("cluster: control body runs past its %s frame (%d bytes at most)", f.Type, MaxFrameBytes)
		case f.Node >= len(n.peers):
			err = fmt.Errorf("cluster: sender node %d out of range for %d-node cluster", f.Node, len(n.peers))
		case f.Type != want:
			err = fmt.Errorf("cluster: %s frame on the %s route", f.Type, want)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ack, err := apply(f)
		ack.Type, ack.Node, ack.OK = MsgAck, n.self, err == nil
		if err != nil {
			ack.Err = err.Error()
			ack.Err = ack.Err[:min(len(ack.Err), MaxFrameBytes/4)]
		}
		reply, err := AppendFrame(ack)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", frameContentType)
		w.Write(reply)
	}
}

// handleArtifact streams the staging file of one generation — ?gen=G,
// staged or committed; the committed one without it — with its generation
// and identity in headers. It is the one route artifact bytes leave a node
// by: a peer's prepare and a rejoining node's catch-up both pull from it.
func (n *Node) handleArtifact(w http.ResponseWriter, r *http.Request) {
	gen := n.Gen()
	if q := r.URL.Query().Get("gen"); q != "" {
		var err error
		if gen, err = strconv.ParseUint(q, 10, 64); err != nil {
			http.Error(w, "cluster: gen: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	path := n.stagePath(gen)
	ident, err := artifact.Identity(path)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: no artifact for gen %d on this node", gen), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(genHeader, strconv.FormatUint(gen, 10))
	w.Header().Set(identHeader, ident)
	http.ServeFile(w, r, path)
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
	mw.Counter("wcc_cluster_replications_total", "Artifacts fetched (or staged by a coordinator) and persisted.", n.replications.Load())
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
