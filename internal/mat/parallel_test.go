package mat

import (
	"bytes"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// goroutineID names the running goroutine by the header line of its stack
// trace ("goroutine 7 [running]:") — enough to tell two goroutines apart.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(buf[:bytes.IndexByte(buf, '[')])
}

// TestSmallBatchStaysOnTheCaller pins the block policy's lower end: a batch
// shorter than two full blocks is one fn call on the calling goroutine,
// however many workers are on offer — a sparse tick's two rows must not buy
// a goroutine hand-off each.
func TestSmallBatchStaysOnTheCaller(t *testing.T) {
	caller := goroutineID()
	for _, rows := range []int{0, 1, 2, minBlockRows - 1, minBlockRows, 2*minBlockRows - 1} {
		calls := 0 // unsynchronised on purpose: -race flags any second goroutine
		err := ParallelRowBlocks(rows, 8, func(lo, hi int) error {
			calls++
			if lo != 0 || hi != rows {
				t.Errorf("rows=%d: block [%d,%d), want [0,%d)", rows, lo, hi, rows)
			}
			if got := goroutineID(); got != caller {
				t.Errorf("rows=%d: fn ran on %q, caller is %q", rows, got, caller)
			}
			return nil
		})
		if err != nil || calls != 1 {
			t.Fatalf("rows=%d: %d calls, err %v; want exactly one call", rows, calls, err)
		}
	}
}

// TestBlocksTileTheRows checks every rows × workers pairing: the blocks
// cover [0, rows) with no gap and no overlap, there are no more of them
// than workers (GOMAXPROCS for workers ≤ 0) or than rows/minBlockRows,
// RowBlocks is that bound and is 1 exactly when the pass is one block, and
// the first block runs on the caller.
func TestBlocksTileTheRows(t *testing.T) {
	caller := goroutineID()
	for _, rows := range []int{0, 1, 31, 32, 63, 64, 250, 1281, 2000} {
		for _, workers := range []int{0, 1, 2, 8, 40} {
			var mu sync.Mutex
			var blocks [][2]int
			err := ParallelRowBlocks(rows, workers, func(lo, hi int) error {
				if lo == 0 && goroutineID() != caller {
					t.Errorf("rows=%d workers=%d: first block left the calling goroutine", rows, workers)
				}
				mu.Lock()
				blocks = append(blocks, [2]int{lo, hi})
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
			next := 0
			for _, b := range blocks {
				if b[0] != next || (b[1] <= b[0] && rows > 0) {
					t.Fatalf("rows=%d workers=%d: blocks %v do not tile [0,%d)", rows, workers, blocks, rows)
				}
				next = b[1]
			}
			if next != rows {
				t.Fatalf("rows=%d workers=%d: blocks %v stop at %d", rows, workers, blocks, next)
			}
			most := workers
			if most <= 0 {
				most = runtime.GOMAXPROCS(0)
			}
			if limit := rows / minBlockRows; most > limit {
				most = limit
			}
			if most < 1 {
				most = 1
			}
			if len(blocks) > most {
				t.Fatalf("rows=%d workers=%d: %d blocks, want at most %d", rows, workers, len(blocks), most)
			}
			if got := RowBlocks(rows, workers); got != most || (got == 1) != (len(blocks) == 1) {
				t.Fatalf("rows=%d workers=%d: RowBlocks %d for %d blocks, want %d", rows, workers, got, len(blocks), most)
			}
		}
	}
}

// TestBlockErrorIsReturned: the first failing block's error comes back,
// whether that block ran on the caller or on a worker.
func TestBlockErrorIsReturned(t *testing.T) {
	boom := errors.New("boom")
	for _, failLo := range []int{0, 125} {
		err := ParallelRowBlocks(250, 2, func(lo, hi int) error {
			if lo == failLo {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("block at %d failed but ParallelRowBlocks returned %v", failLo, err)
		}
	}
}
