package tree

// walk32 walks row through the 32 trees whose roots are roots[0:32] — four
// independent sets of eight AVX-512 gather lanes — and stores tree j's leaf
// id in ids[j] and that leaf's feat word in fts[j]. It reads feat, thr and
// kids only at node ids reachable from the roots and row only at split
// features, so the caller must hold every split feature below len(row).
//
//go:noescape
func walk32(feat *int32, thr *float64, kids *int32, row *float64, roots *int32, ids, fts *[32]int32)
