package fleet

import (
	"fmt"
	"testing"

	"repro/internal/servetest"
)

// TestEquivalenceIngestBatchMatchesIngest pins IngestBatch to Ingest: the
// same stream goes through one monitor one sample at a time and through
// another in random batch splits, under the same injected clock. After
// every batch both refuse the same samples (each under its own index, with
// the same error) and hold the same stripe queues in the same order; after
// every tick they publish the same snapshot, and at the end the same drift
// statistics and per-partition counters. Rows of the twin table
// (twin_test.go).
func TestEquivalenceIngestBatchMatchesIngest(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			runTwins(t, twinRow{name: fmt.Sprintf("shards=%d,seed=%d", shards, seed),
				a:    twinSide{shards: shards, drift: true, tickEvery: 100},
				b:    twinSide{shards: shards, drift: true, tickEvery: 100, batch: true},
				jobs: 24, perJob: 2*servetest.Window + 5, seed: seed})
		}
	}
}
