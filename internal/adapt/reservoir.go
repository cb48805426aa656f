package adapt

import "math/rand"

// reservoir is the bounded buffer of rejected-window feature rows the
// flywheel clusters candidates from. It keeps a uniform sample of every row
// offered since its last reset (classic reservoir sampling), so a long
// buffering phase cannot bias the sample toward early traffic, and a burst
// of rejections past the capacity degrades to sampling — never to growth
// and never to blocking. Rows are copied on entry: the tick path lends its
// batch matrix rows and reuses them immediately.
//
// The reservoir is not concurrency-safe on its own; the Manager's mutex
// guards it.
type reservoir struct {
	cap  int
	rng  *rand.Rand
	rows [][]float64
	// seen counts rows offered since the last reset; dropped counts rows
	// not retained, cumulatively across resets (the
	// wcc_adapt_buffer_dropped_total counter stays monotonic through
	// promotions).
	seen    uint64
	dropped uint64
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

// offer records one rejected window's feature row, copying it.
func (r *reservoir) offer(features []float64) {
	r.seen++
	if len(r.rows) < r.cap {
		r.rows = append(r.rows, append([]float64(nil), features...))
		return
	}
	// Full: replace a random slot with probability cap/seen, keeping the
	// retained set a uniform sample of everything offered.
	if j := r.rng.Intn(int(r.seen)); j < r.cap {
		copy(r.rows[j], features)
	}
	r.dropped++
}

// snapshot copies the retained rows out, so clustering and training can run
// outside the Manager's lock while ticks keep offering.
func (r *reservoir) snapshot() [][]float64 {
	out := make([][]float64, len(r.rows))
	for i, row := range r.rows {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// reset clears the retained sample — a model swap made every buffered row
// stale (it was scored by the previous generation). dropped stays
// cumulative.
func (r *reservoir) reset() {
	r.rows = r.rows[:0]
	r.seen = 0
}
