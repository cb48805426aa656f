package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
)

// metricValue scrapes one unlabelled series from a node's /metrics.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	code, body := get(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d", url, code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("%s/metrics has no %s series", url, name)
	return 0
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// zeroes is an endless stream of zero bytes that allocates nothing.
type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestControlBodyOverCapIsRefusedCheaply is the probe that found the old
// frame cap: a well-formed control frame padded to 64 MiB, on each control
// route of the public listener. The node must answer 4xx having read — and
// allocated — next to nothing; at protocol version 1 the ping was answered
// 200 after a 128 MiB allocation.
func TestControlBodyOverCapIsRefusedCheaply(t *testing.T) {
	const padded = 64 << 20
	c := clustertest.Start(t, clustertest.Options{Nodes: 2})
	for _, tc := range []struct {
		route string
		typ   cluster.MsgType
	}{
		{"/cluster/v1/ping", cluster.MsgPing},
		{"/cluster/v1/swap/prepare", cluster.MsgPrepare},
		{"/cluster/v1/swap/commit", cluster.MsgCommit},
		{"/cluster/v1/swap/abort", cluster.MsgAbort},
	} {
		t.Run(tc.typ.String(), func(t *testing.T) {
			frame, err := cluster.AppendFrame(cluster.Frame{Type: tc.typ, Node: 1, Gen: 1, Identity: "v1|meta:1:00000000"})
			if err != nil {
				t.Fatal(err)
			}
			// The same frame alone is a conversation, not a refusal.
			if code, body := post(t, c.URLs[0]+tc.route, "application/x-wcc-cluster", frame); code != http.StatusOK {
				t.Fatalf("bare %s frame: status %d: %s", tc.typ, code, body)
			}
			body := io.MultiReader(bytes.NewReader(frame), io.LimitReader(zeroes{}, padded-int64(len(frame))))
			req, err := http.NewRequest(http.MethodPost, c.URLs[0]+tc.route, body)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = padded

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := http.DefaultClient.Do(req)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("padded %s frame: %v", tc.typ, err)
			}
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode > 499 {
				t.Errorf("padded %s frame: status %d, want a 4xx", tc.typ, resp.StatusCode)
			}
			if moved := after.TotalAlloc - before.TotalAlloc; moved > 1<<20 {
				t.Errorf("padded %s frame: process allocated %d bytes while refusing it, want under 1 MiB", tc.typ, moved)
			}
		})
	}
	for i := range c.URLs {
		if st := c.Member(i).Cluster.Status(); st.Gen != 0 || st.StagedGen != 0 {
			t.Errorf("node %d at gen %d with gen %d staged after refusals only", i, st.Gen, st.StagedGen)
		}
	}
}

// TestClusterPrepareNeedsThePullPath partitions the coordinator's inbound
// side: it can still reach every peer, so its prepare frames arrive, but no
// peer can reach back for /cluster/v1/artifact. Such a peer cannot prove it
// can serve the generation, so the roll aborts fleet-wide and every node
// keeps generation G; once the path heals the same roll goes through.
func TestClusterPrepareNeedsThePullPath(t *testing.T) {
	const (
		window  = 6
		sensors = 3
	)
	c := clustertest.Start(t, clustertest.Options{Nodes: 3, Window: window, Sensors: sensors})
	dir := t.TempDir()
	art1 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 1)
	art2 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 2)
	if _, err := c.Member(0).Cluster.DistributeFile(art1); err != nil {
		t.Fatalf("distributing stamp 1: %v", err)
	}

	c.Fault.Partition(c.URLs[0])
	_, err := c.Member(0).Cluster.DistributeFile(art2)
	if err == nil || !strings.Contains(err.Error(), "preparing gen 2 on node") || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("DistributeFile = %v, want a peer's prepare to fail on the unreachable coordinator", err)
	}
	for i := 0; i < 3; i++ {
		m := c.Member(i)
		if st := m.Cluster.Status(); st.Gen != 1 || st.StagedGen != 0 {
			t.Errorf("node %d at gen %d with gen %d staged after the aborted roll, want gen 1 and nothing staged", i, st.Gen, st.StagedGen)
		}
		if got := stampServedBy(t, m, window, sensors); got != 1 {
			t.Errorf("node %d serves stamp %d after the aborted roll, want 1", i, got)
		}
	}
	// Nothing moved: each peer still holds the one artifact it pulled for gen 1.
	for i := 1; i < 3; i++ {
		if got := metricValue(t, c.URLs[i], "wcc_cluster_replications_total"); got != 1 {
			t.Errorf("node %d persisted %v artifacts, want 1 (gen 1 only)", i, got)
		}
	}

	c.Fault.Heal(c.URLs[0])
	if !clustertest.Settle(3*time.Second, func() bool {
		_, err = c.Member(0).Cluster.DistributeFile(art2)
		return err == nil
	}) {
		t.Fatalf("retry after the partition healed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got := stampServedBy(t, c.Member(i), window, sensors); got != 2 {
			t.Errorf("node %d serves stamp %d after the retry, want 2", i, got)
		}
	}
}

// artifactStub serves body on the artifact route, whatever generation is
// asked for, and fails the test on any other request.
func artifactStub(t *testing.T, body func() io.Reader) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/cluster/v1/artifact" || r.URL.Query().Get("gen") != "1" {
			t.Errorf("stub peer got %s %s", r.Method, r.URL)
		}
		io.Copy(w, body())
	})
}

// TestFetchRefusesOversizedBody pins the artifact cap where it lives now:
// a body one byte over it is refused, and nothing reaches staging.
func TestFetchRefusesOversizedBody(t *testing.T) {
	const limit = 4 << 10
	node, url := stubPeerNode(t, artifactStub(t, func() io.Reader { return io.LimitReader(zeroes{}, limit+1) }))
	node.SetArtifactCap(limit)
	err := node.Fetch(1, 1, "v1|meta:1:00000000")
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds the %d-byte cap", limit)) {
		t.Fatalf("Fetch = %v, want the cap's refusal", err)
	}
	if code, _ := get(t, url+"/cluster/v1/artifact?gen=1"); code != http.StatusNotFound {
		t.Errorf("the refused body reached staging: artifact route answers %d, want 404", code)
	}
	if got := metricValue(t, url, "wcc_cluster_replications_total"); got != 0 {
		t.Errorf("replications %v after a refused fetch, want 0", got)
	}
}

// TestFetchRefusesIdentityMismatch serves a peer's artifact whose model
// payload is damaged. Asked for under another identity, it is refused by the
// fingerprint of the node's own copy — not by a decode error, because
// nothing is decoded — and never reaches staging; asked for under its own
// identity it is staged, byte for byte, and served on from there.
func TestFetchRefusesIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	scaler := clustertest.NewScaler(6, 3)
	served := clustertest.StampArtifact(t, dir, 6, 3, scaler, 1)
	other, err := artifact.Identity(clustertest.StampArtifact(t, dir, 6, 3, scaler, 2))
	if err != nil {
		t.Fatal(err)
	}
	own, err := artifact.Identity(served)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(served)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	node, url := stubPeerNode(t, artifactStub(t, func() io.Reader { return bytes.NewReader(raw) }))

	err = node.Fetch(1, 1, other)
	if err == nil || !strings.Contains(err.Error(), "differs from the wanted") {
		t.Fatalf("Fetch under another identity = %v, want the fingerprint's refusal", err)
	}
	if code, _ := get(t, url+"/cluster/v1/artifact?gen=1"); code != http.StatusNotFound {
		t.Errorf("the mismatched copy reached staging: artifact route answers %d, want 404", code)
	}

	if err := node.Fetch(1, 1, own); err != nil {
		t.Fatalf("Fetch under the copy's own identity: %v", err)
	}
	code, body := get(t, url+"/cluster/v1/artifact?gen=1")
	if code != http.StatusOK || !bytes.Equal(body, raw) {
		t.Errorf("staged copy: status %d, %d bytes, want the %d bytes the peer served", code, len(body), len(raw))
	}
	if got := metricValue(t, url, "wcc_cluster_replications_total"); got != 1 {
		t.Errorf("replications %v, want 1", got)
	}
}
