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
// tick-full run), and a goroutine hand-off plus the wait for it is a few
// tens of µs on a busy host, so a block of fewer than ~32 rows (~70–190 µs
// of kernel work) saves too little to pay for its hand-off.
const minBlockRows = 32

// ParallelRowBlocks splits rows into contiguous blocks — at most workers of
// them (workers ≤ 0 selects GOMAXPROCS) and none shorter than minBlockRows
// unless it is the only one — and runs fn on each block concurrently,
// returning the first error. The first block runs on the caller's
// goroutine, so a batch too small to split never leaves it. It is the
// shared scaffolding of the model packages' batched predict paths.
func ParallelRowBlocks(rows, workers int, fn func(lo, hi int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if most := rows / minBlockRows; workers > most {
		workers = most
	}
	if workers <= 1 {
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
