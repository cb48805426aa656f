package mat

// The paths the hand-written kernels can take: KernelPath reports one,
// SetKernelPath takes one. tree.Flat.ScoreBlock's walk32 and the drift
// search's bound and filter kernels all follow the one switch.
const (
	ScalarPath = "scalar"
	AVX512Path = "avx512"
)

// hostAVX512 records whether this CPU has AVX-512F and AVX-512VL and its OS
// saves their registers. avx512, which sends the kernels to their AVX-512
// forms, starts at it; only tests change it, through SetKernelPath.
var (
	hostAVX512 = hasAVX512()
	avx512     = hostAVX512
)

// AVX512 reports whether the kernels take their AVX-512 forms.
func AVX512() bool { return avx512 }

// KernelPath names the path the kernels take: AVX512Path on a CPU with
// AVX-512F and AVX-512VL whose OS saves their registers, ScalarPath
// elsewhere.
func KernelPath() string {
	if avx512 {
		return AVX512Path
	}
	return ScalarPath
}

// SetKernelPath makes the kernels take path and reports the path it
// replaces; ok is false, and nothing changes, for a path this CPU cannot
// run. Each kernel's two forms return the same bits, so it exists only for
// tests and benchmarks that run both on one host: it must not run beside a
// kernel call, and TestDocsConsistency refuses a call in non-test code.
func SetKernelPath(path string) (prev string, ok bool) {
	prev = KernelPath()
	switch {
	case path == ScalarPath:
		avx512 = false
	case path == AVX512Path && hostAVX512:
		avx512 = true
	default:
		return prev, false
	}
	return prev, true
}
