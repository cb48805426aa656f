package xgb

import (
	"repro/internal/mat"
)

// flatEnsemble is the compiled inference form of a fitted boosted ensemble:
// every regression tree's nodes in one contiguous structure-of-arrays
// layout, children laid out adjacently so the traversal picks a child by
// offset arithmetic instead of chasing per-node pointers. It is built once
// — at Fit or Decode time — and is immutable afterwards, so ticks on many
// goroutines can walk it without synchronisation.
//
// Per node:
//
//	feat[id]  split feature index, or -1 for a leaf
//	thr[id]   split threshold; for leaves, the leaf weight
//	kids[id]  index of the left child (right child is kids[id]+1);
//	          unused (0) for leaves
//
// roots holds one root index per (round, class) tree in boosting order. The
// walk uses the same `value <= threshold` comparison as the pointer tree —
// NaN routes right on both — and the batch kernel accumulates round
// contributions in boosting order before one softmax per row, exactly as
// scoreRowInto, so results are bit-identical to the pointer path.
type flatEnsemble struct {
	lr         float64
	numClasses int
	roots      []int32 // row-major [round][class]
	feat       []int32
	thr        []float64
	kids       []int32
}

// compileFlat flattens the ensemble. Each tree is relaid breadth-first so
// sibling children occupy adjacent slots; leaf weights are preserved
// exactly.
func compileFlat(trees [][]*regTree, lr float64, numClasses int) *flatEnsemble {
	f := &flatEnsemble{lr: lr, numClasses: numClasses}
	type pending struct {
		orig int
		slot int32
	}
	var queue []pending
	for _, round := range trees {
		for _, t := range round {
			root := int32(len(f.feat))
			f.roots = append(f.roots, root)
			f.feat = append(f.feat, 0)
			f.thr = append(f.thr, 0)
			f.kids = append(f.kids, 0)
			queue = append(queue[:0], pending{orig: 0, slot: root})
			for len(queue) > 0 {
				p := queue[0]
				queue = queue[1:]
				nd := &t.nodes[p.orig]
				if nd.leaf {
					f.feat[p.slot] = -1
					f.thr[p.slot] = nd.weight
					continue
				}
				left := int32(len(f.feat))
				f.feat = append(f.feat, 0, 0)
				f.thr = append(f.thr, 0, 0)
				f.kids = append(f.kids, 0, 0)
				f.feat[p.slot] = int32(nd.feature)
				f.thr[p.slot] = nd.threshold
				f.kids[p.slot] = left
				queue = append(queue, pending{orig: nd.left, slot: left}, pending{orig: nd.right, slot: left + 1})
			}
		}
	}
	return f
}

// predictRow walks one flat tree for one feature row. The split step is
// phrased as a conditional select so the compiler emits SETcc instead of a
// data-dependent branch (the direction is near 50/50 and mispredicts
// dominate a branchy walk); NaN routes right, exactly like `!(v <= thr)`.
func (f *flatEnsemble) predictRow(root int32, row []float64) float64 {
	feat, thr, kids := f.feat, f.thr, f.kids
	id := root
	for {
		ft := feat[id]
		if ft < 0 {
			return thr[id]
		}
		step := int32(1)
		if row[ft] <= thr[id] {
			step = 0
		}
		id = kids[id] + step
	}
}

// scoreBlock accumulates boosted per-class scores for rows [lo, hi) into
// out, then softmaxes every row. Tree-outer iteration keeps the flat arrays
// hot in cache, and each tree sweeps the block four rows at a time: a
// single walk is a serial chain of data-dependent loads, so four
// independent lanes let the core overlap their latencies (lanes that reach
// a leaf early idle until the slowest lane finishes). Accumulation order
// (round, class) and the softmax match scoreRowInto bit for bit;
// interleaving rows never reorders any single row's additions.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (f *flatEnsemble) scoreBlock(x, out *mat.Matrix, lo, hi int) {
	feat, thr, kids := f.feat, f.thr, f.kids
	xd, xc := x.Data, x.Cols
	od, oc := out.Data, out.Cols
	lr := f.lr
	for ti, root := range f.roots {
		k := ti % f.numClasses
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
			od[(i+0)*oc+k] += lr * thr[id0]
			od[(i+1)*oc+k] += lr * thr[id1]
			od[(i+2)*oc+k] += lr * thr[id2]
			od[(i+3)*oc+k] += lr * thr[id3]
		}
		for ; i < hi; i++ {
			od[i*oc+k] += lr * f.predictRow(root, xd[i*xc:(i+1)*xc])
		}
	}
	for i := lo; i < hi; i++ {
		dst := od[i*oc : i*oc+f.numClasses]
		softmaxInto(dst, dst)
	}
}
