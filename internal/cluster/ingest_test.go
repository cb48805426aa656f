package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/fleet"
	"repro/internal/server"
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
func totals(c *clustertest.Cluster) (cores, forwarded, errs, received uint64) {
	for i := range c.URLs {
		cores += c.Member(i).Core.SamplesIngested()
		f, e, r := c.Member(i).Cluster.ForwardStats()
		forwarded, errs, received = forwarded+f, errs+e, received+r
	}
	return
}

// TestClusterIngestMatchesSingleNode pins that a batch is judged where it
// first arrives: one NDJSON body mixing good, wrong-width, out-of-range and
// malformed lines for locally owned and foreign jobs gets, from node 0 of a
// 3-node cluster, the response a single node gives byte for byte — and every
// sample that response calls accepted is applied by exactly one core. The
// body comes in two job orders: with the owned job's lines first, where the
// split keeps each owned sample at its own index, and last, where it moves
// the owned wrong-width and out-of-range samples to lower indices, so the
// reply names them by their lines only if the split moved each line with
// its sample.
func TestClusterIngestMatchesSingleNode(t *testing.T) {
	for _, order := range []string{"owned-first", "owned-last"} {
		t.Run(order, func(t *testing.T) {
			const sensors = 3
			c := clustertest.Start(t, clustertest.Options{Nodes: 3, Sensors: sensors})
			single := clustertest.Start(t, clustertest.Options{Nodes: 1, Sensors: sensors})

			n0 := c.Member(0).Cluster
			local, peer1, peer2 := ownedBy(n0, 0, 100), ownedBy(n0, 1, 100), ownedBy(n0, 2, 100)
			jobs := []int{local, peer1, peer2}
			if order == "owned-last" {
				jobs = []int{peer1, peer2, local}
			}
			var lines []string
			for _, job := range jobs {
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

			cores, forwarded, errs, received := totals(c)
			if cores != uint64(ir.Accepted) {
				t.Errorf("cores hold %d samples, the response accepted %d", cores, ir.Accepted)
			}
			if forwarded != 4 || received != forwarded || errs != 0 {
				t.Errorf("forwarded %d received %d errs %d, want 4 4 0", forwarded, received, errs)
			}
		})
	}
}

// TestClusterUsesEveryPartition pins that node placement and partition
// placement are independent: with as many partitions per node as nodes, a
// batch spread over many jobs leaves jobs on every partition of every node.
// Placing both by the hash modulo the same count would put all of a node's
// jobs on one partition.
func TestClusterUsesEveryPartition(t *testing.T) {
	c := clustertest.Start(t, clustertest.Options{Nodes: 2, Shards: 2})
	var body bytes.Buffer
	for job := 0; job < 64; job++ {
		fmt.Fprintf(&body, "{\"job\":%d,\"values\":[1,2,3]}\n", job)
	}
	if code, out := post(t, c.URLs[0]+"/v1/ingest", "application/x-ndjson", body.Bytes()); code != http.StatusOK || !bytes.HasPrefix(out, []byte(`{"accepted":64,"rejected":0}`)) {
		t.Fatalf("ingest: status %d: %s", code, out)
	}
	for i := range c.URLs {
		for p, st := range c.Member(i).Core.ShardStats() {
			if st.Jobs == 0 {
				t.Errorf("node %d partition %d holds no jobs", i, p)
			}
		}
	}
}

// TestClusterCrossTrafficCompletes sends each of two nodes, one ingest worker
// apiece, concurrent batches made only of the other node's jobs. Every batch
// must be applied in full, in time: forwarding waits for the owner on the
// request's goroutine, never on the worker the owner's own forwards need.
func TestClusterCrossTrafficCompletes(t *testing.T) {
	const batches, perBatch = 8, 20
	c := clustertest.Start(t, clustertest.Options{Nodes: 2, Workers: 1})
	done := make(chan error, 2*batches)
	for from := range 2 {
		for b := range batches {
			job := ownedBy(c.Member(from).Cluster, 1-from, 1000*from+100*b)
			var body bytes.Buffer
			for v := range perBatch {
				fmt.Fprintf(&body, "{\"job\":%d,\"values\":[%d,0,0]}\n", job, v)
			}
			go func() {
				resp, err := http.Post(c.URLs[from]+"/v1/ingest", "application/x-ndjson", &body)
				if err != nil {
					done <- err
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && (resp.StatusCode != http.StatusOK || !bytes.HasPrefix(out, []byte(fmt.Sprintf(`{"accepted":%d,"rejected":0}`, perBatch)))) {
					err = fmt.Errorf("node %d, job %d: status %d: %s", from, job, resp.StatusCode, out)
				}
				done <- err
			}()
		}
	}
	deadline := time.After(20 * time.Second)
	for range 2 * batches {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			t.Fatal("cross traffic between two one-worker nodes did not finish")
		}
	}
	if cores, forwarded, errs, received := totals(c); cores != 2*batches*perBatch || forwarded != cores || received != cores || errs != 0 {
		t.Errorf("cores %d, forwarded %d, received %d, errs %d; want %d forwarded and received, none rejected",
			cores, forwarded, received, errs, 2*batches*perBatch)
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
	if _, _, received := c.Member(1).Cluster.ForwardStats(); received != 1 {
		t.Errorf("received counter %d, want 1 (the applied sample only)", received)
	}
}

// stubPeerNode builds node 0 of a cluster whose nodes 1, 2, … are the given
// handlers, with heartbeats effectively off so each stub stays the owner of
// its jobs. It returns the node and its public URL.
func stubPeerNode(t *testing.T, peers ...http.Handler) (*cluster.Node, string) {
	t.Helper()
	urls := []string{"http://node0.invalid"}
	for _, peer := range peers {
		stub := httptest.NewServer(peer)
		t.Cleanup(stub.Close)
		urls = append(urls, stub.URL)
	}
	core, err := fleet.New(fleet.Config{
		Window: 6, Sensors: 3, Scaler: clustertest.NewScaler(6, 3), Model: clustertest.StampModel(t, 3, 0), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{
		Self: 0, Peers: urls, Core: core,
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

// TestForwarderHonoursThePeersReply drives the public route's forwarding
// against stub peers: a 429 is waited out for the advertised Retry-After and
// the same bytes sent again, losing nothing and keeping the job's sample
// order; the owner's per-record errors come back under the client's line
// numbers; a refusal rejects every line the owner was sent, naming it; and
// stopping the node ends a wait to resend.
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
			if code, out := post(t, url+"/v1/ingest", "application/x-ndjson", part); code != http.StatusOK || !bytes.HasPrefix(out, []byte(`{"accepted":5,"rejected":0}`)) {
				t.Fatalf("ingest: status %d: %s", code, out)
			}
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
		if forwarded, errs, _ := node.ForwardStats(); forwarded != 10 || errs != 0 {
			t.Errorf("forwarded %d errs %d, want 10 0", forwarded, errs)
		}
	})

	t.Run("rejected in the reply", func(t *testing.T) {
		node, url := stubPeerNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			dec, records := wire.NewIngestDecoder(body), 0
			for _, ok := dec.Next(); ok; _, ok = dec.Next() {
				records++
			}
			if err := dec.Err(); err != nil {
				t.Errorf("forwarded batch framing: %v", err)
			}
			fmt.Fprintf(w, `{"accepted":%d,"rejected":2,"errors":[{"line":1,"error":"x"},{"line":3,"error":"y"}]}`, records-2)
		}))
		// Lines alternate between a job node 0 owns and one the stub owns, so
		// the stub's records 1 and 3 are the client's lines 2 and 6.
		local, peer := ownedBy(node, 0, 0), ownedBy(node, 1, 0)
		var body bytes.Buffer
		for v := 0; v < 5; v++ {
			body.Write(ndjson(local, v, v+1))
			body.Write(ndjson(peer, v, v+1))
		}
		code, out := post(t, url+"/v1/ingest", "application/x-ndjson", body.Bytes())
		want := `{"accepted":8,"rejected":2,"errors":[{"line":2,"error":"x"},{"line":6,"error":"y"}]}` + "\n"
		if code != http.StatusOK || string(out) != want {
			t.Errorf("status %d, reply %s, want %s", code, out, want)
		}
		if forwarded, errs, _ := node.ForwardStats(); forwarded != 5 || errs != 2 {
			t.Errorf("forwarded %d errs %d, want 5 2", forwarded, errs)
		}
	})

	t.Run("refused", func(t *testing.T) {
		node, url := stubPeerNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		code, out := post(t, url+"/v1/ingest", "application/x-ndjson", ndjson(ownedBy(node, 1, 0), 0, 3))
		var ir struct {
			Accepted, Rejected int
			Errors             []struct {
				Line  int
				Error string
			}
		}
		if err := json.Unmarshal(out, &ir); code != http.StatusOK || err != nil {
			t.Fatalf("status %d, reply %s (%v)", code, out, err)
		}
		if ir.Accepted != 0 || ir.Rejected != 3 || len(ir.Errors) != 3 {
			t.Fatalf("reply %s, want all 3 lines rejected", out)
		}
		for i, e := range ir.Errors {
			if e.Line != i+1 || e.Error != "cluster: owner node 1 refused the batch: HTTP 503" {
				t.Errorf("line error %+v, want line %d refused by node 1", e, i+1)
			}
		}
		if forwarded, errs, _ := node.ForwardStats(); forwarded != 3 || errs != 3 {
			t.Errorf("forwarded %d errs %d, want 3 3", forwarded, errs)
		}
	})

	t.Run("stop ends the wait", func(t *testing.T) {
		posted := make(chan struct{}, 1)
		node, url := stubPeerNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Retry-After", "60")
			w.WriteHeader(http.StatusTooManyRequests)
			posted <- struct{}{}
		}))
		go func() { <-posted; node.Stop() }()
		start := time.Now()
		code, out := post(t, url+"/v1/ingest", "application/x-ndjson", ndjson(ownedBy(node, 1, 0), 0, 1))
		if time.Since(start) > 30*time.Second {
			t.Errorf("the reply waited %s, past the node's stop", time.Since(start))
		}
		if code != http.StatusOK || !bytes.Contains(out, []byte(`"rejected":1`)) || !bytes.Contains(out, []byte("owner node 1 refused the batch: HTTP 429")) {
			t.Errorf("status %d, reply %s, want the line rejected with the owner's 429", code, out)
		}
	})
}

// TestUnreachableOwnerCountsTowardDeadAfter: a batch that never reached its
// owner is a failed probe, as a failed ping is. With no heartbeat running
// (the node is never started), DeadAfter requests whose node-1 lines are
// rejected as unreachable mark node 1 dead, and the next request keeps those
// jobs' samples and applies them locally.
func TestUnreachableOwnerCountsTowardDeadAfter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	core, err := fleet.New(fleet.Config{
		Window: 6, Sensors: 3, Scaler: clustertest.NewScaler(6, 3), Model: clustertest.StampModel(t, 3, 0), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const deadAfter = 3
	node, err := cluster.New(cluster.Config{
		Self: 0, Peers: []string{"http://node0.invalid", closed}, Core: core,
		Serve: server.Config{TickEvery: time.Hour}, Dir: t.TempDir(), DeadAfter: deadAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		front.Close()
		node.Server().Close()
	})

	job := ownedBy(node, 1, 0)
	line := []byte(fmt.Sprintf("{\"job\":%d,\"values\":[1,2,3]}\n", job))
	for i := 1; i <= deadAfter; i++ {
		if !node.Alive()[1] {
			t.Fatalf("node 1 marked dead after %d unreachable requests, want %d", i-1, deadAfter)
		}
		code, out := post(t, front.URL+"/v1/ingest", "application/x-ndjson", line)
		if code != http.StatusOK || !bytes.Contains(out, []byte(`"rejected":1`)) || !bytes.Contains(out, []byte("owner node 1 unreachable")) {
			t.Fatalf("request %d: status %d, reply %s, want the line rejected as unreachable", i, code, out)
		}
	}
	if node.Alive()[1] {
		t.Fatalf("node 1 still alive after %d unreachable requests", deadAfter)
	}
	if node.Owner(job) != 0 {
		t.Fatalf("job %d routes to node %d with node 1 dead, want 0", job, node.Owner(job))
	}
	code, out := post(t, front.URL+"/v1/ingest", "application/x-ndjson", line)
	if code != http.StatusOK || !bytes.HasPrefix(out, []byte(`{"accepted":1,"rejected":0`)) {
		t.Fatalf("status %d, reply %s, want the line accepted locally", code, out)
	}
	if n := core.SamplesIngested(); n != 1 {
		t.Fatalf("local core ingested %d samples, want 1", n)
	}
}
