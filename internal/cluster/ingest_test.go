package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// ownedBy returns the first job ID at or above from that n routes to owner.
func ownedBy(n *cluster.Node, owner, from int) int {
	for n.Owner(from) != owner {
		from++
	}
	return from
}

func post(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// totals sums the cores' ingested samples and the forwarding counters over
// every member.
func totals(c *clustertest.Cluster) (cores, forwarded, dropped, errs, received uint64) {
	for i := range c.URLs {
		cores += c.Member(i).Core.SamplesIngested()
		f, d, e, r := c.Member(i).Cluster.ForwardStats()
		forwarded, dropped, errs, received = forwarded+f, dropped+d, errs+e, received+r
	}
	return
}

// TestClusterIngestMatchesSingleNode pins that a batch is judged where it
// first arrives: one NDJSON body mixing good, wrong-width, out-of-range and
// malformed lines for locally owned and foreign jobs gets, from node 0 of a
// 3-node cluster, the response a single node gives byte for byte — and every
// sample that response calls accepted is applied by exactly one core.
func TestClusterIngestMatchesSingleNode(t *testing.T) {
	const sensors = 3
	c := clustertest.Start(t, clustertest.Options{Nodes: 3, Sensors: sensors})
	single := clustertest.Start(t, clustertest.Options{Nodes: 1, Sensors: sensors})

	n0 := c.Member(0).Cluster
	local, peer1, peer2 := ownedBy(n0, 0, 100), ownedBy(n0, 1, 100), ownedBy(n0, 2, 100)
	var lines []string
	for _, job := range []int{local, peer1, peer2} {
		lines = append(lines,
			fmt.Sprintf(`{"job":%d,"values":[1,2,3]}`, job),
			fmt.Sprintf(`{"job":%d,"values":[1,2]}`, job),      // wrong width
			fmt.Sprintf(`{"job":%d,"values":[1,1e13,3]}`, job), // past the magnitude bound
			fmt.Sprintf(`{"job":%d,"values":[4,5,6]}`, job),
		)
	}
	lines = append(lines, `{not json`, `{"job":-5,"values":[1,2,3]}`)
	body := []byte(strings.Join(lines, "\n"))

	code, got := post(t, c.URLs[0]+"/v1/ingest", "application/x-ndjson", body)
	refCode, want := post(t, single.URLs[0]+"/v1/ingest", "application/x-ndjson", body)
	if code != http.StatusOK || refCode != http.StatusOK {
		t.Fatalf("status %d from the cluster, %d from the single node, want 200 from both", code, refCode)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("node 0 of 3 answered\n%s\na single node answers\n%s", got, want)
	}
	var ir struct{ Accepted, Rejected int }
	if err := json.Unmarshal(got, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 6 || ir.Rejected != 8 {
		t.Errorf("accounting %+v, want accepted 6 / rejected 8", ir)
	}

	if err := n0.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cores, forwarded, dropped, errs, received := totals(c)
	if cores != uint64(ir.Accepted) {
		t.Errorf("cores hold %d samples, the response accepted %d", cores, ir.Accepted)
	}
	if forwarded != 4 || received != forwarded || dropped != 0 || errs != 0 {
		t.Errorf("forwarded %d received %d dropped %d errs %d, want 4 4 0 0", forwarded, received, dropped, errs)
	}
}

// TestPeerIngestRouteIsThePublicPipeline pins the two request-level
// behaviours the peer route inherits from the one ingest pipeline: a record
// the public route refuses is refused per record and registers nothing, and
// a framing break rejects the whole batch before any of it is applied.
func TestPeerIngestRouteIsThePublicPipeline(t *testing.T) {
	c := clustertest.Start(t, clustertest.Options{Nodes: 2, Sensors: 3})
	core, url := c.Member(1).Core, c.URLs[1]+"/cluster/v1/ingest"

	negative := wire.AppendIngestRecord(nil, -5, []float64{1, 2, 3})
	code, out := post(t, url, wire.IngestContentType, negative)
	var ir struct {
		Accepted, Rejected int
		Errors             []struct{ Error string }
	}
	if err := json.Unmarshal(out, &ir); code != http.StatusOK || err != nil {
		t.Fatalf("job -5: status %d, body %q (%v)", code, out, err)
	}
	if ir.Accepted != 0 || ir.Rejected != 1 || len(ir.Errors) != 1 || ir.Errors[0].Error != `missing or negative "job"` {
		t.Errorf("job -5 answered %s, want the public route's per-record rejection", out)
	}
	if n := core.NumJobs(); n != 0 {
		t.Errorf("job -5 registered %d jobs", n)
	}

	good := wire.AppendIngestRecord(nil, 7, []float64{1, 2, 3})
	torn := append(append([]byte(nil), good...), good[:len(good)-3]...)
	if code, out := post(t, url, wire.IngestContentType, torn); code != http.StatusBadRequest {
		t.Errorf("torn batch: status %d (%s), want 400", code, out)
	}
	if n := core.SamplesIngested(); n != 0 {
		t.Errorf("a batch answered 400 applied %d samples", n)
	}
	if code, _ := post(t, url, wire.IngestContentType, good); code != http.StatusOK || core.SamplesIngested() != 1 {
		t.Errorf("intact batch: status %d, %d samples ingested, want 200 and 1", code, core.SamplesIngested())
	}
	if _, _, _, received := c.Member(1).Cluster.ForwardStats(); received != 1 {
		t.Errorf("received counter %d, want 1 (the applied sample only)", received)
	}
}

// stubPeerNode builds node 0 of a 2-node cluster whose peer is the given
// handler, with heartbeats effectively off so the stub stays the owner of
// its jobs. It returns the node and its public URL.
func stubPeerNode(t *testing.T, peer http.Handler) (*cluster.Node, string) {
	t.Helper()
	stub := httptest.NewServer(peer)
	t.Cleanup(stub.Close)
	core, err := shard.New(shard.Config{
		Window: 6, Sensors: 3, Scaler: clustertest.NewScaler(6, 3), Model: clustertest.StampModel(t, 3, 0), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{
		Self: 0, Peers: []string{"http://node0.invalid", stub.URL}, Core: core,
		Serve: server.Config{TickEvery: time.Hour}, Dir: t.TempDir(), HeartbeatEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(node.Handler())
	node.Start()
	t.Cleanup(func() {
		front.Close()
		node.Stop()
		node.Server().Close()
	})
	return node, front.URL
}

// TestForwarderHonoursThePeersReply drives one forwarder against stub peers:
// a 429 is waited out for the advertised Retry-After and the same bytes sent
// again, losing nothing and keeping the job's sample order; a 200 that
// reports rejected samples counts them as forwarding errors.
func TestForwarderHonoursThePeersReply(t *testing.T) {
	ndjson := func(job, from, to int) []byte {
		var b bytes.Buffer
		for v := from; v < to; v++ {
			fmt.Fprintf(&b, "{\"job\":%d,\"values\":[%d,0,0]}\n", job, v)
		}
		return b.Bytes()
	}

	t.Run("429 then 200", func(t *testing.T) {
		var mu sync.Mutex
		var bodies [][]byte
		var arrived []time.Time
		var applied []float64
		node, url := stubPeerNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			bodies, arrived = append(bodies, body), append(arrived, time.Now())
			first := len(bodies) == 1
			mu.Unlock()
			if first {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			dec := wire.NewIngestDecoder(body)
			var vals []float64
			for rec, ok := dec.Next(); ok; rec, ok = dec.Next() {
				vals = append(vals, rec.Values[0])
			}
			if err := dec.Err(); err != nil {
				t.Errorf("forwarded batch framing: %v", err)
			}
			mu.Lock()
			applied = append(applied, vals...)
			mu.Unlock()
			fmt.Fprintf(w, `{"accepted":%d,"rejected":0}`, len(vals))
		}))
		job := ownedBy(node, 1, 0)
		for _, part := range [][]byte{ndjson(job, 0, 5), ndjson(job, 5, 10)} {
			if code, out := post(t, url+"/v1/ingest", "application/x-ndjson", part); code != http.StatusOK {
				t.Fatalf("ingest: status %d: %s", code, out)
			}
		}
		if err := node.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(bodies) < 2 || !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("the throttled batch was not sent again unchanged (%d posts)", len(bodies))
		}
		if wait := arrived[1].Sub(arrived[0]); wait < 900*time.Millisecond {
			t.Errorf("retried after %s, the peer advertised Retry-After: 1", wait)
		}
		if fmt.Sprint(applied) != "[0 1 2 3 4 5 6 7 8 9]" {
			t.Errorf("the peer applied %v, want 0..9 in order", applied)
		}
		if forwarded, dropped, errs, _ := node.ForwardStats(); forwarded != 10 || dropped != 0 || errs != 0 {
			t.Errorf("forwarded %d dropped %d errs %d, want 10 0 0", forwarded, dropped, errs)
		}
	})

	t.Run("rejected in the reply", func(t *testing.T) {
		node, url := stubPeerNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, `{"accepted":3,"rejected":2,"errors":[{"line":1,"error":"x"},{"line":2,"error":"y"}]}`)
		}))
		if code, out := post(t, url+"/v1/ingest", "application/x-ndjson", ndjson(ownedBy(node, 1, 0), 0, 5)); code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", code, out)
		}
		if err := node.Flush(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if forwarded, dropped, errs, _ := node.ForwardStats(); forwarded != 5 || dropped != 0 || errs != 2 {
			t.Errorf("forwarded %d dropped %d errs %d, want 5 0 2", forwarded, dropped, errs)
		}
	})
}
