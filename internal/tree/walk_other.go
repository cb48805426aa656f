//go:build !amd64

package tree

// walk32 is never called off amd64: mat.AVX512 reports false, so
// ScoreBlock stays on its scalar lanes.
func walk32(feat *int32, thr *float64, kids *int32, row *float64, roots *int32, ids, fts *[32]int32) {
	panic("tree: walk32 without AVX-512")
}
