package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/events"
)

// sseWriteTimeout bounds one SSE frame write. The bus already evicts a
// subscriber whose queue overflows; this bounds the other half of a stalled
// client — a handler goroutine blocked in a TCP write whose socket buffer
// never drains — so eviction always frees the goroutine, not just the slot.
const sseWriteTimeout = 30 * time.Second

// handleEvents serves GET /v1/events: the fleet's push plane as a
// Server-Sent Events stream. Query parameters filter the feed —
// ?type=a,b,c keeps only those event types, ?job=N keeps job-scoped events
// for that job (fleet-scoped events still deliver). Each event is framed as
//
//	event: <type>
//	id: <seq>
//	data: <JSON event>
//
// with periodic ": keep-alive" comments. A subscriber that stops reading is
// evicted when its queue overflows: the stream ends with an "eviction"
// event; reconnect and catch up from GET /v1/jobs.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	opts := events.SubOptions{Buffer: s.cfg.eventBuffer}
	if raw := r.URL.Query().Get("type"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			t := events.Type(strings.TrimSpace(part))
			if !knownEventType(t) {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown event type %q", t))
				return
			}
			opts.Types = append(opts.Types, t)
		}
	}
	if raw := r.URL.Query().Get("job"); raw != "" {
		id, err := strconv.Atoi(raw)
		if err != nil || id < 0 {
			writeError(w, http.StatusBadRequest, "job must be a non-negative integer")
			return
		}
		opts.Job = events.Intp(id)
	}

	sub := s.bus.Subscribe(opts)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	fmt.Fprintf(w, "retry: 2000\n: gen %d\n\n", s.bus.Gen())
	fl.Flush()

	hb := time.NewTicker(eventHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.streamsStop:
			return
		case <-hb.C:
			rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case e, open := <-sub.Events():
			if !open {
				// Evicted for falling behind: tell the client why the
				// stream ends (best effort — it wasn't reading).
				rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
				io.WriteString(w, "event: eviction\ndata: {\"reason\":\"subscriber queue overflow\"}\n\n")
				fl.Flush()
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", e.Type, e.Seq, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func knownEventType(t events.Type) bool {
	for _, k := range events.Types() {
		if t == k {
			return true
		}
	}
	return false
}

// traceStage is one pipeline stage's latency summary in a trace response.
type traceStage struct {
	Stage      string  `json:"stage"`
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50_seconds"`
	P95        float64 `json:"p95_seconds"`
	P99        float64 `json:"p99_seconds"`
}

// traceSpan is one sampled span in a trace response.
type traceSpan struct {
	Stage           string  `json:"stage"`
	StartUnixMS     int64   `json:"start_unix_ms"`
	DurationSeconds float64 `json:"duration_seconds"`
	Items           int     `json:"items"`
}

type traceResponse struct {
	// Stages summarises every pipeline stage's latency histogram, in
	// pipeline order; stages that never ran report zero counts.
	Stages []traceStage `json:"stages"`
	// Spans are the most recent recorded stage executions, oldest first.
	Spans []traceSpan `json:"spans"`
}

// handleTrace serves GET /v1/trace: per-stage latency summaries plus the
// recent-span sample — the JSON face of the same recorder /metrics renders
// as wcc_stage_latency_seconds histograms.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	snap := s.tracer.Snapshot()
	resp := traceResponse{Stages: make([]traceStage, 0, len(snap.Stages)), Spans: make([]traceSpan, 0, len(snap.Spans))}
	for _, st := range snap.Stages {
		resp.Stages = append(resp.Stages, traceStage{
			Stage:      st.Stage.String(),
			Count:      st.Count,
			SumSeconds: st.Sum,
			P50:        st.Quantile(0.50),
			P95:        st.Quantile(0.95),
			P99:        st.Quantile(0.99),
		})
	}
	for _, sp := range snap.Spans {
		resp.Spans = append(resp.Spans, traceSpan{
			Stage:           sp.Stage.String(),
			StartUnixMS:     sp.Start.UnixMilli(),
			DurationSeconds: sp.Dur.Seconds(),
			Items:           sp.Items,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
