package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/cluster/clustertest"
	"repro/internal/wire"
)

// BenchmarkForward is the peer hop's rung: it posts a 1 024-sample body over
// 64 jobs, job k%64 on line k, in each framing to node 0 of a 1-, 2- and
// 3-node in-process cluster, and each post returns once every owner has
// applied its share. It reports ns/sample and B/sample (bytes allocated).
// Every node runs in this process, so both figures are fleet-wide: the entry
// node's parse, split and forward, each owner's parse and apply, and the
// loopback HTTP between them. The cluster is built outside the clock, and
// the loop runs over b.N.
func BenchmarkForward(b *testing.B) {
	const samples, jobs = 1024, 64
	var ndjson, binary []byte
	for k := range samples {
		values := []float64{float64(k % 7), 0.5 * float64(k%5), 3}
		ndjson = fmt.Appendf(ndjson, "{\"job\":%d,\"values\":[%g,%g,%g]}\n", k%jobs, values[0], values[1], values[2])
		binary = wire.AppendIngestRecord(binary, int64(k%jobs), values)
	}
	want := []byte(`{"accepted":` + strconv.Itoa(samples) + `,"rejected":0}`)
	for _, nodes := range []int{1, 2, 3} {
		for _, f := range []struct {
			name, contentType string
			body              []byte
		}{
			{"ndjson", "application/x-ndjson", ndjson},
			{"binary", wire.IngestContentType, binary},
		} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, f.name), func(b *testing.B) {
				c := clustertest.Start(b, clustertest.Options{Nodes: nodes, Sensors: 3})
				url := c.URLs[0] + "/v1/ingest"
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for range b.N {
					resp, err := http.Post(url, f.contentType, bytes.NewReader(f.body))
					if err != nil {
						b.Fatal(err)
					}
					out, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || !bytes.HasPrefix(out, want) {
						b.Fatalf("status %d: %s (%v)", resp.StatusCode, out, err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				n := float64(b.N * samples)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/sample")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/sample")
			})
		}
	}
}
