package mat

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register state the OS saves.
// Only call it once CPUID reports OSXSAVE.
func xgetbv() (eax uint32)

// hasAVX512 reports whether the CPU has AVX-512F and AVX-512VL and the OS
// saves their register state: CPUID leaf 7's feature bits, leaf 1's
// OSXSAVE and XCR0's SSE, AVX, opmask and upper-ZMM bits.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx512f, avx512vl = 1 << 16, 1 << 31
	return ebx&avx512f != 0 && ebx&avx512vl != 0
}
