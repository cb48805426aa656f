package mat

import (
	"runtime"
	"sync"
)

// minBlockRows is the fewest rows worth a goroutine of their own. A
// flat-kernel row costs ~6 µs once a block amortises its start-up (the
// 250-row figure in benchmark/README.md's cost budget), and a goroutine
// hand-off plus the wait for it is a few tens of µs on a busy host, so
// below ~32 rows a second block costs more than it saves.
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
