package mat

import (
	"runtime"
	"sync"
)

// minBlockRows is the fewest rows worth a goroutine of their own. A
// flat-kernel row of a 100-tree forest costs ~4 µs on the AVX-512 walk and
// ~6 µs on the scalar lanes (forest's BenchmarkPredictProbaBatch,
// trees=100 rows=45, best of 6 rounds on 2 vCPUs; the benchmark's model
// reads ~2.3 and ~3.3 µs as forest.classify_ns_per_row on a traced
// tick-full run). A hand-off is priced by timing the forked blocks of
// tick-full runs (2 vCPUs, per-run means over about 20 000 forks each): a
// forked block starts 75–79 µs after its spawn and finishes 56–73 µs after
// the caller's block. So a block of fewer than ~32 rows (~70–190 µs of
// kernel work) saves too little to pay for its hand-off.
const minBlockRows = 32

// RowBlocks is the most blocks ParallelRowBlocks splits rows into for
// workers: no more than workers (workers ≤ 0 selects GOMAXPROCS), none
// shorter than minBlockRows unless it is the only one, and at least one.
// At 1 the pass is one block on the caller, so a caller that checks runs
// the block body itself and builds no closure for it: a closure handed to
// ParallelRowBlocks escapes to the heap, since a block may run on a
// goroutine. A batch under two blocks' rows never asks for GOMAXPROCS.
func RowBlocks(rows, workers int) int {
	if rows < 2*minBlockRows {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, rows/minBlockRows), 1)
}

// ParallelRowBlocks splits rows into at most RowBlocks(rows, workers)
// contiguous blocks, all of one length but the last, and runs fn on each
// block concurrently, returning the first error. The first block runs on
// the caller's goroutine, so a batch too small to split never leaves it.
// It is the shared scaffolding of the model packages' batched predict
// paths.
func ParallelRowBlocks(rows, workers int, fn func(lo, hi int) error) error {
	workers = RowBlocks(rows, workers)
	if workers == 1 {
		return fn(0, rows)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	block := (rows + workers - 1) / workers
	for w := 1; w < workers; w++ {
		lo, hi := w*block, (w+1)*block
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	errs[0] = fn(0, block)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
