package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wire"
)

// Peer ingest forwarding: a sample that arrives at the wrong node rides a
// bounded per-peer queue, is batched into the binary ingest framing of
// internal/wire, and is POSTed to the owner's /cluster/v1/ingest. One
// forwarder goroutine per peer keeps per-job sample order — everything a
// given node forwards to a given peer arrives in enqueue order, so a
// job's window fills exactly as it would have locally.
//
// The queue is bounded and the enqueue non-blocking: a full queue rejects
// the sample with an error that surfaces in the ingest batch's per-line
// accounting, the same visible-backpressure posture as the serving
// layer's 429. Loss during a peer outage is therefore bounded by the
// queue depth and counted, never silent: a sample the gate passed is applied
// by its owner, or counted in forwardDropped or forwardErrors.

// fwdSample is one queued forwarded sample, or a flush marker.
type fwdSample struct {
	job    int
	values []float64 // owned copy; never aliases pooled parse scratch
	// flush, when non-nil, marks a synchronisation point: the forwarder
	// posts everything queued before it, then closes the channel.
	flush chan struct{}
}

// forwarder drains one peer's queue.
type forwarder struct {
	n    *Node
	peer int
	ch   chan fwdSample
	buf  []byte // the batch being framed; only run's goroutine touches it
}

func newForwarder(n *Node, peer int) *forwarder {
	return &forwarder{n: n, peer: peer, ch: make(chan fwdSample, forwardBuffer)}
}

// forward enqueues one sample for the owning peer, copying the values
// first: the caller's slice belongs to the serving layer's pooled parse
// scratch, which is reused the moment the ingest handler returns, while
// the queued sample lives until a forwarder batch posts it.
func (n *Node) forward(owner, jobID int, values []float64) error {
	f := n.forwarders[owner]
	if f == nil {
		return fmt.Errorf("cluster: no forwarder for node %d", owner)
	}
	vals := make([]float64, len(values))
	copy(vals, values)
	select {
	case f.ch <- fwdSample{job: jobID, values: vals}:
		n.forwarded.Add(1)
		return nil
	default:
		n.forwardDropped.Add(1)
		return fmt.Errorf("cluster: forward queue to node %d full", owner)
	}
}

// Flush forces every forwarder to post its queue and waits for all of
// them (or the timeout). Tests and drain paths use it to make "every
// accepted sample has reached its owner" a checkable instant.
func (n *Node) Flush(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var waits []chan struct{}
	for _, f := range n.forwarders {
		if f == nil {
			continue
		}
		done := make(chan struct{})
		select {
		case f.ch <- fwdSample{flush: done}:
			waits = append(waits, done)
		case <-deadline.C:
			return fmt.Errorf("cluster: flush timed out enqueueing marker for node %d", f.peer)
		}
	}
	for _, done := range waits {
		select {
		case <-done:
		case <-deadline.C:
			return fmt.Errorf("cluster: flush timed out after %s", timeout)
		}
	}
	return nil
}

// run drains the queue until Stop, batching up to forwardBatch samples per
// POST. On Stop it posts what is still queued, so a graceful shutdown loses
// nothing that was accepted.
func (f *forwarder) run() {
	defer f.n.wg.Done()
	for {
		select {
		case <-f.n.stop:
			for {
				select {
				case s := <-f.ch:
					f.batch(s)
				default:
					return
				}
			}
		case s := <-f.ch:
			f.batch(s)
		}
	}
}

// batch collects the first sample plus whatever else is immediately
// queued (up to the batch cap), posts once, then releases any flush
// markers collected along the way.
func (f *forwarder) batch(first fwdSample) {
	var flushes []chan struct{}
	count := 0
	s := first
	for {
		if s.flush != nil {
			flushes = append(flushes, s.flush)
		} else {
			f.buf = wire.AppendIngestRecord(f.buf, int64(s.job), s.values)
			count++
		}
		if count >= forwardBatch {
			break
		}
		select {
		case s = <-f.ch:
			continue
		default:
		}
		break
	}
	if count > 0 {
		if lost, err := f.post(f.buf, count); lost > 0 {
			f.n.forwardErrors.Add(uint64(lost))
			f.n.log.Warn("cluster: forwarded samples lost", "peer", f.peer, "samples", count, "lost", lost, "err", err)
		}
		f.buf = f.buf[:0]
	}
	for _, done := range flushes {
		close(done)
	}
}

// post ships one batch to the peer's /cluster/v1/ingest and reads the reply
// — the public route's accepted/rejected accounting. It reports how many of
// the batch's samples did not land: all of them on a transport error or a
// refusing status, the peer's rejected count otherwise. A 429 says the
// peer's ingest queue is full, not that the batch is bad: post waits the
// advertised Retry-After and sends the same bytes again, so it is this
// forwarder's bounded queue that backs up (and counts what it turns away),
// and per-job order holds. Stop cuts the wait short and allows one last try.
func (f *forwarder) post(body []byte, count int) (int, error) {
	for stopped := false; ; {
		resp, err := f.n.client.Post(f.n.peers[f.peer]+peerIngestPath, wire.IngestContentType, bytes.NewReader(body))
		if err != nil {
			return count, err
		}
		var reply struct {
			Rejected int `json:"rejected"`
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&reply)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && !stopped:
			secs, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
			if perr != nil || secs < 0 {
				secs = 1
			}
			select {
			case <-time.After(time.Duration(secs) * time.Second):
			case <-f.n.stop:
				stopped = true
			}
		case resp.StatusCode != http.StatusOK:
			return count, fmt.Errorf("HTTP %d", resp.StatusCode)
		case err != nil:
			return count, fmt.Errorf("reading the reply: %w", err)
		default:
			return reply.Rejected, errors.New("rejected by the peer")
		}
	}
}
