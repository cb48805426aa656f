//go:build !amd64

package stream

// pushAVX512 is never called off amd64: mat.AVX512 reports false, so Push
// stays on its Go loop.
func pushAVX512(sums, slot, sample, means, stds []float64, pairs *[pairSteps][2][8]int64) {
	panic("stream: pushAVX512 without AVX-512")
}
