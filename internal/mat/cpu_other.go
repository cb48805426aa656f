//go:build !amd64

package mat

// hasAVX512 is false off amd64: every kernel takes its Go path.
func hasAVX512() bool { return false }
