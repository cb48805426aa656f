package fleet

import (
	"testing"

	"repro/internal/servetest"
)

// TestIngestBatchAllocatesNothing gates IngestBatch's steady state with
// drift monitoring on: once a Batch has held a batch as large, a 1 024-sample
// body (job k%64 on line k) into registered jobs allocates nothing, at one
// partition and at four.
func TestIngestBatchAllocatesNothing(t *testing.T) {
	scaler, model := servetest.Fixture(t)
	cal := servetest.Calibration(t, 31, 400)
	const jobs, body = 64, 1024
	streams := make([][][]float64, jobs)
	for j := range streams {
		streams[j] = servetest.JobSamples(j, body/jobs)
	}
	for _, shards := range []int{1, 4} {
		m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler,
			Model: model, Shards: shards, Drift: cal})
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		for k := range body {
			b.Samples = append(b.Samples, Sample{Job: k % jobs, Values: streams[k%jobs][k/jobs]})
		}
		if errs := m.IngestBatch(&b); len(errs) != 0 {
			t.Fatal(errs[0].Err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if errs := m.IngestBatch(&b); len(errs) != 0 {
				t.Error(errs[0].Err)
			}
		}); allocs != 0 {
			t.Fatalf("%d partitions: a steady IngestBatch allocates %.1f times, want 0", shards, allocs)
		}
	}
}
