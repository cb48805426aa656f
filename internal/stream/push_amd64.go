package stream

// pushAVX512 is Push's standardise-and-update for one sample of n ≤ 8
// sensors in AVX-512 lanes: it standardises sample with means and stds,
// updates every sum from the pair table with the products of the evicted
// slot and the new values, and stores the new values into slot. Each lane
// forms the Go loop's two products, each rounded, then subtracts and adds
// in the Go loop's order, with no fused multiply-add, so both return the
// same bits. slot, means and stds must be as long as sample, sums must be
// n(n+1)/2 long and pairs must be pairIndex[n].
//
//go:noescape
func pushAVX512(sums, slot, sample, means, stds []float64, pairs *[pairSteps][2][8]int64)
