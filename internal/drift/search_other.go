//go:build !amd64

package drift

// boundsAVX512 and filterAVX512 are never called off amd64: mat.AVX512
// reports false, so the walk stays on boundsGo and filterGo.
func boundsAVX512(blk *[blockLen]float64, q *[pruneAxes]float64, cut float64) (end, keep uint8) {
	panic("drift: boundsAVX512 without AVX-512")
}

func filterAVX512(z, t []float64) float64 {
	panic("drift: filterAVX512 without AVX-512")
}
