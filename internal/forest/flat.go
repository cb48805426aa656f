package forest

import (
	"repro/internal/mat"
	"repro/internal/tree"
)

// flatForest is the compiled inference form of a fitted ensemble: every
// tree's nodes in one contiguous structure-of-arrays layout, children laid
// out adjacently so the traversal picks a child by offset arithmetic
// instead of chasing per-node pointers. It is built once — at Fit or Decode
// time — and is immutable afterwards, so ticks on many goroutines can walk
// it without synchronisation.
//
// Per node:
//
//	feat[id]  internal node: split feature index (≥ 0). Leaf: -k, where k
//	          is the number of class entries the leaf adds.
//	thr[id]   internal node: split threshold. One-entry leaf: the value.
//	kids[id]  internal node: index of the left child; the right child is
//	          always kids[id]+1 (breadth-first relayout guarantees the
//	          pair is adjacent). One-entry leaf: the class. Leaf with
//	          k ≥ 2 entries: offset of its first entry in entries.
//
// A leaf stores only the nonzero entries of its class distribution. Every
// leaf of an unpruned tree is one-hot, so it lives inline in its node, the
// form xgb's flat kernel uses for leaf weights; only leaves of pruned trees
// (MaxDepth, MinSamplesLeaf) or decoded artifacts reach the shared entries
// table. A leaf with no nonzero entry keeps one inline +0 for class 0, so it
// never encodes as feat 0, which would read as a split.
//
// Dropping zero entries is exact: accumulators start at +0, and under
// round-to-nearest no sum of the kept terms is ever −0, so adding ±0 leaves
// every accumulator's bits unchanged. NaN and negative entries are kept. The
// walk uses the same `value <= threshold` comparison as the pointer tree —
// NaN routes right on both — and the batch kernel accumulates tree
// contributions in ensemble order followed by one scaling, exactly as
// predictProbaInto, so results are bit-identical to the pointer paths.
type flatForest struct {
	numClasses int
	roots      []int32
	feat       []int32
	thr        []float64
	kids       []int32
	entries    []leafEntry
}

// leafEntry is one nonzero class entry of a leaf with two or more.
type leafEntry struct {
	class int32
	value float64
}

// compileFlat flattens the ensemble. Each tree is relaid breadth-first so
// sibling children occupy adjacent slots; node count and every nonzero leaf
// entry are preserved exactly.
func compileFlat(trees []*tree.Classifier, numClasses int) *flatForest {
	f := &flatForest{
		numClasses: numClasses,
		roots:      make([]int32, 0, len(trees)),
	}
	type pending struct {
		orig int
		slot int32
	}
	var queue []pending
	for _, t := range trees {
		nodes := t.ExportNodes()
		root := int32(len(f.feat))
		f.roots = append(f.roots, root)
		f.feat = append(f.feat, 0)
		f.thr = append(f.thr, 0)
		f.kids = append(f.kids, 0)
		queue = append(queue[:0], pending{orig: 0, slot: root})
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			nd := &nodes[p.orig]
			if nd.Leaf {
				f.setLeaf(p.slot, nd.Probs)
				continue
			}
			left := int32(len(f.feat))
			f.feat = append(f.feat, 0, 0)
			f.thr = append(f.thr, 0, 0)
			f.kids = append(f.kids, 0, 0)
			f.feat[p.slot] = int32(nd.Feature)
			f.thr[p.slot] = nd.Threshold
			f.kids[p.slot] = left
			queue = append(queue, pending{orig: nd.Left, slot: left}, pending{orig: nd.Right, slot: left + 1})
		}
	}
	return f
}

// setLeaf encodes the leaf distribution probs at slot: its one nonzero
// entry inline, or its k ≥ 2 nonzero entries appended to entries.
func (f *flatForest) setLeaf(slot int32, probs []float64) {
	k, last := 0, 0
	for c, v := range probs {
		if v != 0 { // NaN != 0: NaN entries are kept
			k, last = k+1, c
		}
	}
	if k <= 1 {
		// An all-zero leaf (k == 0, last == 0) adds +0 to class 0, which
		// changes no bit.
		v := 0.0
		if k == 1 {
			v = probs[last]
		}
		f.feat[slot], f.thr[slot], f.kids[slot] = -1, v, int32(last)
		return
	}
	f.feat[slot] = -int32(k)
	f.kids[slot] = int32(len(f.entries))
	for c, v := range probs {
		if v != 0 {
			f.entries = append(f.entries, leafEntry{class: int32(c), value: v})
		}
	}
}

// scoreBlock accumulates the ensemble's averaged leaf distributions for
// rows [lo, hi) into out. Tree-outer iteration keeps the flat arrays hot in
// cache while each tree sweeps the block, and the sweep walks four rows at
// a time: each walk is a serial chain of data-dependent loads, so four
// independent lanes let the core overlap their latencies. Lanes that reach
// a leaf early idle (their feat sentinel goes negative) until the slowest
// lane finishes. Per-row accumulation order and the final scaling match
// predictProbaInto bit for bit; interleaving rows never reorders any
// single row's additions.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (f *flatForest) scoreBlock(x, out *mat.Matrix, lo, hi int) {
	nc := f.numClasses
	feat, thr, kids := f.feat, f.thr, f.kids
	xd, xc := x.Data, x.Cols
	od, oc := out.Data, out.Cols
	for _, root := range f.roots {
		i := lo
		for ; i+4 <= hi; i += 4 {
			r0 := xd[(i+0)*xc : (i+1)*xc]
			r1 := xd[(i+1)*xc : (i+2)*xc]
			r2 := xd[(i+2)*xc : (i+3)*xc]
			r3 := xd[(i+3)*xc : (i+4)*xc]
			id0, id1, id2, id3 := root, root, root, root
			f0, f1, f2, f3 := feat[id0], feat[id1], feat[id2], feat[id3]
			for f0 >= 0 || f1 >= 0 || f2 >= 0 || f3 >= 0 {
				if f0 >= 0 {
					step := int32(1)
					if r0[f0] <= thr[id0] {
						step = 0
					}
					id0 = kids[id0] + step
					f0 = feat[id0]
				}
				if f1 >= 0 {
					step := int32(1)
					if r1[f1] <= thr[id1] {
						step = 0
					}
					id1 = kids[id1] + step
					f1 = feat[id1]
				}
				if f2 >= 0 {
					step := int32(1)
					if r2[f2] <= thr[id2] {
						step = 0
					}
					id2 = kids[id2] + step
					f2 = feat[id2]
				}
				if f3 >= 0 {
					step := int32(1)
					if r3[f3] <= thr[id3] {
						step = 0
					}
					id3 = kids[id3] + step
					f3 = feat[id3]
				}
			}
			f.addLeaf(od[(i+0)*oc:(i+0)*oc+nc], id0, f0)
			f.addLeaf(od[(i+1)*oc:(i+1)*oc+nc], id1, f1)
			f.addLeaf(od[(i+2)*oc:(i+2)*oc+nc], id2, f2)
			f.addLeaf(od[(i+3)*oc:(i+3)*oc+nc], id3, f3)
		}
		for ; i < hi; i++ {
			row := xd[i*xc : (i+1)*xc]
			id := root
			ft := feat[id]
			for ft >= 0 {
				// Conditional-select phrasing (not a guarded increment)
				// so the compiler emits SETcc instead of a branch: the
				// split direction is data-dependent and near 50/50.
				// NaN routes right, exactly like `!(v <= thr)`.
				step := int32(1)
				if row[ft] <= thr[id] {
					step = 0
				}
				id = kids[id] + step
				ft = feat[id]
			}
			f.addLeaf(od[i*oc:i*oc+nc], id, ft)
		}
	}
	inv := 1.0 / float64(len(f.roots))
	for i := lo; i < hi; i++ {
		dst := od[i*oc : i*oc+nc]
		for c := range dst {
			dst[c] *= inv
		}
	}
}

// addLeaf adds the entries of leaf id, whose feat is ft, into the row dst.
// A one-entry leaf is one add from its own node; the entry table is read
// only for leaves with two or more.
func (f *flatForest) addLeaf(dst []float64, id, ft int32) {
	if ft == -1 {
		dst[f.kids[id]] += f.thr[id]
		return
	}
	off := f.kids[id]
	for _, e := range f.entries[off : off-ft] {
		dst[e.class] += e.value
	}
}
