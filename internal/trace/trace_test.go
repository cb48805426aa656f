package trace

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestObserveBucketsAndSnapshot(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	r.Observe(StageClassify, now, 3*time.Microsecond, 8)  // ≤ 5µs bucket
	r.Observe(StageClassify, now, 40*time.Microsecond, 8) // ≤ 50µs bucket
	r.Observe(StageClassify, now, 10*time.Second, 8)      // beyond the grid
	r.Observe(StageParse, now, 100*time.Nanosecond, 256)  // ≤ 5µs bucket

	snap := r.Snapshot()
	cl := snap.Stages[StageClassify]
	if cl.Count != 3 {
		t.Fatalf("classify count = %d, want 3", cl.Count)
	}
	if got := cl.Cumulative[0]; got != 1 {
		t.Fatalf("classify ≤5µs cumulative = %d, want 1", got)
	}
	if got := cl.Cumulative[len(Buckets)-1]; got != 2 {
		t.Fatalf("classify ≤%g cumulative = %d, want 2 (one observation beyond the grid)",
			Buckets[len(Buckets)-1], got)
	}
	wantSum := (3*time.Microsecond + 40*time.Microsecond + 10*time.Second).Seconds()
	if math.Abs(cl.Sum-wantSum) > 1e-12 {
		t.Fatalf("classify sum = %v, want %v", cl.Sum, wantSum)
	}
	if pa := snap.Stages[StageParse]; pa.Count != 1 || pa.Cumulative[0] != 1 {
		t.Fatalf("parse stats %+v", pa)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("snapshot holds %d spans, want 4", len(snap.Spans))
	}
	if sp := snap.Spans[0]; sp.Stage != StageClassify || sp.Items != 8 {
		t.Fatalf("first span %+v", sp)
	}
}

func TestBucketsAreSorted(t *testing.T) {
	for i := 1; i < len(Buckets); i++ {
		if Buckets[i] <= Buckets[i-1] {
			t.Fatalf("bucket grid not increasing at %d: %g after %g", i, Buckets[i], Buckets[i-1])
		}
	}
}

func TestQuantile(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	// 100 observations uniform in (0, 1ms]: the q-quantile should sit near
	// q·1ms once interpolated through the bucket grid.
	for i := 1; i <= 100; i++ {
		r.Observe(StageIngest, now, time.Duration(i)*10*time.Microsecond, 1)
	}
	st := r.Snapshot().Stages[StageIngest]
	p50 := st.Quantile(0.5)
	if p50 < 100e-6 || p50 > 900e-6 {
		t.Fatalf("p50 = %v, want near 500µs", p50)
	}
	p99 := st.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %v below p50 %v", p99, p50)
	}
	if got := (StageStats{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty-stage quantile = %v, want 0", got)
	}
}

func TestSpanRingKeepsNewest(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	for i := 0; i < spanRing+50; i++ {
		r.Observe(StageQueue, now, time.Duration(i), i)
	}
	spans := r.Snapshot().Spans
	if len(spans) != spanRing {
		t.Fatalf("ring holds %d spans, want %d", len(spans), spanRing)
	}
	if spans[0].Items != 50 || spans[len(spans)-1].Items != spanRing+49 {
		t.Fatalf("ring order wrong: first=%d last=%d", spans[0].Items, spans[len(spans)-1].Items)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Observe(StageParse, time.Now(), time.Millisecond, 1)
	snap := r.Snapshot()
	if snap.Stages[StageParse].Count != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil recorder produced observations: %+v", snap)
	}
}

// TestStageNamesDistinct: each stage labels its own metric series, so no
// two stages share a name and none takes the out-of-range "unknown".
func TestStageNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if seen[name] || name == "unknown" {
			t.Fatalf("stage %d has a repeated or unknown name %q", s, name)
		}
		seen[name] = true
	}
	if NumStages.String() != "unknown" {
		t.Fatalf("an out-of-range stage is named %q", NumStages.String())
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < 1000; i++ {
				r.Observe(Stage(i%int(NumStages)), now, time.Duration(i)*time.Microsecond, i)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, st := range r.Snapshot().Stages {
		total += st.Count
	}
	if total != 8000 {
		t.Fatalf("recorded %d observations, want 8000", total)
	}
}
