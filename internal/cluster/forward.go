package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/wire"
)

// Peer ingest forwarding happens inside the client's request. The public
// route's split keeps the samples this node owns and frames every other
// sample that passes fleet.CheckSample into a batch for its owner, in the
// binary ingest framing of internal/wire. Once the kept samples are admitted,
// forward posts each batch to its owner's /cluster/v1/ingest in turn, on the
// request's goroutine: never on an ingest worker, because the owner's route
// waits for the owner's workers, and two nodes whose workers wait on each
// other would deadlock. The reply waits for every owner's verdict, so each
// line it calls accepted was applied by its owner, and nothing is queued
// after it. A job's samples reach one owner in the client's order, so its
// window fills exactly as it would have on a single node.

// maxForwardBody caps one forwarded batch in bytes, well under the owner's
// ingest body cap: a binary record can take twice the bytes of the NDJSON
// line that carried it, so one owner's share of a full client body may not
// fit in one request.
const maxForwardBody = 4 << 20

// outbox is one batch for one owner: the framed records and, per record, the
// client's line number.
type outbox struct {
	owner int
	body  []byte
	lines []int
}

// split is the public ingest route's server.Split. It compacts in place,
// moving the samples this node owns and their lines to the front in order. A
// peer-owned sample that fleet.CheckSample refuses is rejected here with the
// error a single node gives; the rest are framed for their owners, and
// forward delivers them. A first pass counts each owner's samples; every
// record has the same size, so each batch is allocated once, at most that
// large.
func (n *Node) split(samples []fleet.Sample, lines []int) (int, func(context.Context) server.Verdict) {
	var left []int // per owner: its samples not yet in a batch
	for _, sm := range samples {
		if owner := n.Owner(sm.Job); owner != n.self {
			if left == nil {
				left = make([]int, len(n.peers))
			}
			left[owner]++
		}
	}
	if left == nil {
		return len(samples), nil
	}

	// A batch closes once it holds maxForwardBody bytes or more.
	sensors := n.core.Sensors()
	size := wire.IngestRecordSize(sensors)
	perBatch := (maxForwardBody + size - 1) / size
	var out []outbox
	var refused []server.LineError
	open := make([]int, len(n.peers)) // per owner: 1 + the index in out of its open batch, 0 for none
	keep := 0                         // writes only slots already read
	for i, sm := range samples {
		owner := n.Owner(sm.Job)
		if owner == n.self {
			samples[keep], lines[keep] = sm, lines[i]
			keep++
			continue
		}
		if err := fleet.CheckSample(sm.Values, sensors); err != nil {
			refused = append(refused, server.LineError{Line: lines[i], Error: err.Error()})
			continue
		}
		if open[owner] == 0 || len(out[open[owner]-1].lines) == perBatch {
			r := min(left[owner], perBatch)
			left[owner] -= r
			out = append(out, outbox{owner: owner, body: make([]byte, 0, r*size), lines: make([]int, 0, r)})
			open[owner] = len(out)
		}
		ob := &out[open[owner]-1]
		ob.body = wire.AppendIngestRecord(ob.body, int64(sm.Job), sm.Values)
		ob.lines = append(ob.lines, lines[i])
	}
	return keep, func(ctx context.Context) server.Verdict {
		v := server.Verdict{Errors: refused}
		for i := range out {
			n.deliver(ctx, &out[i], &v)
		}
		return v
	}
}

// deliver posts one batch and adds its owner's verdict to v, each rejected
// record under the client's line number. A batch the owner refused or never
// answered is rejected line by line with the post's error.
func (n *Node) deliver(ctx context.Context, ob *outbox, v *server.Verdict) {
	n.forwarded.Add(uint64(len(ob.lines)))
	reply, err := n.post(ctx, ob.owner, ob.body, len(ob.lines))
	if err != nil {
		n.forwardErrors.Add(uint64(len(ob.lines)))
		for _, line := range ob.lines {
			v.Errors = append(v.Errors, server.LineError{Line: line, Error: err.Error()})
		}
		return
	}
	n.forwardErrors.Add(uint64(reply.Rejected))
	v.Accepted += reply.Accepted
	v.Unlisted += reply.Rejected - len(reply.Errors)
	for _, e := range reply.Errors {
		v.Errors = append(v.Errors, server.LineError{Line: ob.lines[e.Line-1], Error: e.Error})
	}
}

// ingestReply is the part of an owner's ingest reply forwarding reads.
type ingestReply struct {
	Accepted int                `json:"accepted"`
	Rejected int                `json:"rejected"`
	Errors   []server.LineError `json:"errors"`
}

// check holds a reply to the batch of count records it answers: every
// record accepted or rejected, and each listed error at its own record.
func (r *ingestReply) check(count int) error {
	if r.Accepted < 0 || r.Rejected < len(r.Errors) || r.Accepted+r.Rejected != count {
		return fmt.Errorf("the reply counts %d accepted and %d rejected of %d records", r.Accepted, r.Rejected, count)
	}
	prev := 0
	for _, e := range r.Errors {
		if e.Line <= prev || e.Line > count {
			return fmt.Errorf("the reply lists record %d out of order or past the %d sent", e.Line, count)
		}
		prev = e.Line
	}
	return nil
}

// post sends one batch to the owner's /cluster/v1/ingest and returns the
// owner's reply. A 429 says the owner's queue is full, not that the batch is
// bad: post waits the advertised Retry-After and sends the same bytes again,
// which keeps each job's samples in order, unless the client's request is
// cancelled or the node stops first. An error is the text every record of the
// batch is rejected with: it names the owner, and says the outcome is unknown
// once the body was sent. An owner that could not be reached before the body
// was sent counts toward Config.DeadAfter; an unknown outcome or a refusal
// does not.
func (n *Node) post(ctx context.Context, owner int, body []byte, count int) (ingestReply, error) {
	var sent atomic.Bool // set by the transport's goroutine
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(w httptrace.WroteRequestInfo) { sent.Store(w.Err == nil) },
	})
	for {
		var reply ingestReply
		sent.Store(false)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.peers[owner]+peerIngestPath, bytes.NewReader(body))
		if err != nil {
			return reply, fmt.Errorf("cluster: owner node %d: %w", owner, err)
		}
		req.Header.Set("Content-Type", wire.IngestContentType)
		resp, err := n.client.Do(req)
		if err != nil {
			if sent.Load() {
				return reply, fmt.Errorf("cluster: owner node %d: outcome unknown: %w", owner, err)
			}
			// The owner never took the body: that is a failed probe, as a
			// failed ping is, unless the client's request was what ended.
			if ctx.Err() == nil {
				n.noteFailure(owner, err)
			}
			return reply, fmt.Errorf("cluster: owner node %d unreachable: %w", owner, err)
		}
		if resp.StatusCode == http.StatusOK {
			if err = json.NewDecoder(resp.Body).Decode(&reply); err == nil {
				err = reply.check(count)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && err != nil:
			return reply, fmt.Errorf("cluster: owner node %d: outcome unknown: %w", owner, err)
		case resp.StatusCode == http.StatusOK:
			return reply, nil
		case resp.StatusCode != http.StatusTooManyRequests:
			return reply, fmt.Errorf("cluster: owner node %d refused the batch: HTTP %d", owner, resp.StatusCode)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 0 {
			secs = 1
		}
		wait := time.NewTimer(time.Duration(secs) * time.Second)
		select {
		case <-wait.C:
			continue
		case <-ctx.Done():
			err = ctx.Err()
		case <-n.stop:
			err = errors.New("the node is stopping")
		}
		wait.Stop()
		return reply, fmt.Errorf("cluster: owner node %d refused the batch: HTTP 429, and the wait to resend it ended: %w", owner, err)
	}
}
