package drift

// boundsAVX512 is boundsGo in eight AVX-512 lanes, one per row of the
// block: each lane forms its row's bounds from the same products and sums,
// in the same order, with no fused multiply-add, so both return the same
// bits.
//
//go:noescape
func boundsAVX512(blk *[blockLen]float64, q *[pruneAxes]float64, cut float64) (end, keep uint8)

// filterAVX512 is filterGo in eight AVX-512 lanes: lane l sums the terms
// j ≡ l mod 8, and the lanes are added pairwise at the end. It reads
// len(z) values of t, so the caller must hold len(t) ≥ len(z).
//
//go:noescape
func filterAVX512(z, t []float64) float64
