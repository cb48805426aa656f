package tree

// walk32 walks row through the 32 trees whose roots are roots[0:32] — four
// independent sets of eight AVX-512 gather lanes — and stores tree j's leaf
// id in ids[j] and that leaf's feat word in fts[j]. It reads feat, thr and
// kids only at node ids reachable from the roots and row only at split
// features, so the caller must hold every split feature below len(row).
//
//go:noescape
func walk32(feat *int32, thr *float64, kids *int32, row *float64, roots *int32, ids, fts *[32]int32)

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register state the OS saves.
// Only call it once CPUID reports OSXSAVE.
func xgetbv() (eax uint32)

// hasWalk32 reports whether the CPU has AVX-512F and AVX-512VL and the OS
// saves their register state: CPUID leaf 7's feature bits, leaf 1's
// OSXSAVE and XCR0's SSE, AVX, opmask and upper-ZMM bits.
func hasWalk32() bool {
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
