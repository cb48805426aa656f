package tree

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// ExportNode is one fitted node in codec-independent export form, the
// input Flat compiles: internal/forest exports its CART trees in it and
// internal/xgb its regression trees, one-entry leaves holding the weight.
// Probs aliases the tree's own leaf distribution — treat it as read-only.
type ExportNode struct {
	Feature   int
	Threshold float64
	Left      int
	Right     int
	Leaf      bool
	Probs     []float64
}

// ExportNodes returns the fitted node array (root at index 0) in export
// form. Children always point to higher indices — grow() lays subtrees out
// after their parent and Decode enforces the same invariant. Returns nil on
// an unfitted tree.
func (t *Classifier) ExportNodes() []ExportNode {
	if len(t.nodes) == 0 {
		return nil
	}
	out := make([]ExportNode, len(t.nodes))
	for i := range t.nodes {
		nd := &t.nodes[i]
		out[i] = ExportNode{
			Feature:   nd.feature,
			Threshold: nd.threshold,
			Left:      nd.left,
			Right:     nd.right,
			Leaf:      nd.leaf,
			Probs:     nd.probs,
		}
	}
	return out
}

// Flat is the compiled inference form of a tree ensemble, shared by the
// random forest and the boosted ensemble: every tree's nodes in one
// contiguous structure-of-arrays layout, children laid out adjacently so the
// traversal picks a child by offset arithmetic instead of chasing per-node
// pointers. It is built once — at Fit or Decode time — and is immutable
// afterwards, so ticks on many goroutines can walk it without
// synchronisation.
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
// Reaching a leaf adds scale·value to each of its entries' classes: scale
// is 1 for the forest, whose leaves are class distributions, and the
// learning rate for xgb, whose tree for class k compiles to one-entry
// leaves for class k. The multiply stays in the walk rather than being
// folded into the values at compile time, so a fused multiply-add rounds
// exactly as the pointer path's `dst[k] += lr*w` does; `1·v` is exact
// fused or not.
//
// A leaf stores only the nonzero entries of its distribution. Every leaf of
// an unpruned forest tree and every xgb leaf is one entry, so it lives
// inline in its node; only leaves of pruned forest trees (MaxDepth,
// MinSamplesLeaf) or decoded artifacts reach the shared entries table. A
// leaf with no nonzero entry keeps one inline +0 for its tree's first
// class, so it never encodes as feat 0, which would read as a split.
//
// Dropping zero entries is exact: accumulators start at +0, and under
// round-to-nearest no sum of the kept terms is ever −0, so adding scale·±0
// leaves every accumulator's bits unchanged. NaN and negative entries are
// kept. The walk uses the same `value <= threshold` comparison as the
// pointer trees — NaN routes right on both — and adds tree contributions
// in ensemble order, so every accumulator is bit-identical to the pointer
// path's sum.
type Flat struct {
	numClasses int
	scale      float64
	roots      []int32
	feat       []int32
	thr        []float64
	kids       []int32
	entries    []LeafEntry
}

// LeafEntry is one nonzero class entry of a leaf with two or more.
type LeafEntry struct {
	Class int32
	Value float64
}

// NewFlat returns an empty ensemble over numClasses outputs whose leaves
// add scale·value; Add compiles its trees.
func NewFlat(numClasses int, scale float64) *Flat {
	return &Flat{numClasses: numClasses, scale: scale}
}

// Add compiles one tree, root at nodes[0], onto the end of the ensemble:
// leaf entry c adds to output class+c. The tree is relaid breadth-first so
// sibling children occupy adjacent slots; node count and every nonzero leaf
// entry are preserved exactly. Add refuses a node array that is not a
// tree: a child index that does not point forward, a non-root node without
// exactly one parent — which the relayout would copy once per path, doubling
// per level — or a leaf wider than the ensemble's classes.
func (f *Flat) Add(nodes []ExportNode, class int) error {
	if len(nodes) == 0 {
		return errors.New("tree has no nodes")
	}
	parented := make([]bool, len(nodes))
	for i := range nodes {
		nd := &nodes[i]
		if nd.Leaf {
			if class < 0 || class+len(nd.Probs) > f.numClasses {
				return fmt.Errorf("leaf %d adds classes %d..%d of %d", i, class, class+len(nd.Probs)-1, f.numClasses)
			}
			continue
		}
		for _, c := range [2]int{nd.Left, nd.Right} {
			if c <= i || c >= len(nodes) {
				return fmt.Errorf("node %d has out-of-range child %d", i, c)
			}
			if parented[c] {
				return fmt.Errorf("node %d has two parents", c)
			}
			parented[c] = true
		}
	}
	for i := 1; i < len(nodes); i++ {
		if !parented[i] {
			return fmt.Errorf("node %d has no parent", i)
		}
	}

	type pending struct {
		orig int
		slot int32
	}
	root := int32(len(f.feat))
	f.roots = append(f.roots, root)
	f.grow(1)
	queue := []pending{{orig: 0, slot: root}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		nd := &nodes[p.orig]
		if nd.Leaf {
			f.setLeaf(p.slot, nd.Probs, class)
			continue
		}
		left := int32(len(f.feat))
		f.grow(2)
		f.feat[p.slot] = int32(nd.Feature)
		f.thr[p.slot] = nd.Threshold
		f.kids[p.slot] = left
		queue = append(queue, pending{orig: nd.Left, slot: left}, pending{orig: nd.Right, slot: left + 1})
	}
	return nil
}

// grow appends n zeroed node slots.
func (f *Flat) grow(n int) {
	f.feat = append(f.feat, make([]int32, n)...)
	f.thr = append(f.thr, make([]float64, n)...)
	f.kids = append(f.kids, make([]int32, n)...)
}

// setLeaf encodes the leaf distribution probs, whose entry c is class
// base+c, at slot: its one nonzero entry inline, or its k ≥ 2 nonzero
// entries appended to entries.
func (f *Flat) setLeaf(slot int32, probs []float64, base int) {
	k, last := 0, 0
	for c, v := range probs {
		if v != 0 { // NaN != 0: NaN entries are kept
			k, last = k+1, c
		}
	}
	if k <= 1 {
		// An all-zero leaf (k == 0, last == 0) adds scale·+0 to the base
		// class, which changes no bit.
		v := 0.0
		if k == 1 {
			v = probs[last]
		}
		f.feat[slot], f.thr[slot], f.kids[slot] = -1, v, int32(base+last)
		return
	}
	f.feat[slot] = -int32(k)
	f.kids[slot] = int32(len(f.entries))
	for c, v := range probs {
		if v != 0 {
			f.entries = append(f.entries, LeafEntry{Class: int32(base + c), Value: v})
		}
	}
}

// Layout is a read-only view of a Flat's arrays, for tests that check the
// relayout invariants the kernel relies on. Its slices alias the Flat's.
type Layout struct {
	Roots, Feat, Kids []int32
	Thr               []float64
	Entries           []LeafEntry
}

// Layout returns the compiled arrays; callers must not modify them.
func (f *Flat) Layout() Layout {
	return Layout{Roots: f.roots, Feat: f.feat, Kids: f.kids, Thr: f.thr, Entries: f.entries}
}

// ScoreBlock adds every tree's scaled leaf entries for rows [lo, hi) of x
// into the same rows of out, whose first numClasses columns are the
// accumulators. Each walk is a serial chain of data-dependent loads, so the
// kernel walks four consecutive trees at once as four independent lanes to
// let the core overlap their latencies; lanes that reach a leaf early idle
// (their feat sentinel goes negative) until the slowest lane finishes. The
// lanes run over trees, not rows, so a block of one or two rows — a sparse
// tick — keeps four chains in flight as a full block does. Each group of
// four trees sweeps the whole block before the next group starts, which
// keeps the group's nodes hot in cache; the trees past the last group of
// four sweep it one at a time. A row adds its four leaves in tree order and
// the groups go by in ensemble order, so every row adds its trees in
// ensemble order, however the block is split.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (f *Flat) ScoreBlock(x, out *mat.Matrix, lo, hi int) {
	nc := f.numClasses
	feat, thr, kids, roots := f.feat, f.thr, f.kids, f.roots
	xd, xc := x.Data, x.Cols
	od, oc := out.Data, out.Cols
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		root0, root1, root2, root3 := roots[t], roots[t+1], roots[t+2], roots[t+3]
		for i := lo; i < hi; i++ {
			row := xd[i*xc : (i+1)*xc]
			id0, id1, id2, id3 := root0, root1, root2, root3
			f0, f1, f2, f3 := feat[id0], feat[id1], feat[id2], feat[id3]
			for f0 >= 0 || f1 >= 0 || f2 >= 0 || f3 >= 0 {
				if f0 >= 0 {
					step := int32(1)
					if row[f0] <= thr[id0] {
						step = 0
					}
					id0 = kids[id0] + step
					f0 = feat[id0]
				}
				if f1 >= 0 {
					step := int32(1)
					if row[f1] <= thr[id1] {
						step = 0
					}
					id1 = kids[id1] + step
					f1 = feat[id1]
				}
				if f2 >= 0 {
					step := int32(1)
					if row[f2] <= thr[id2] {
						step = 0
					}
					id2 = kids[id2] + step
					f2 = feat[id2]
				}
				if f3 >= 0 {
					step := int32(1)
					if row[f3] <= thr[id3] {
						step = 0
					}
					id3 = kids[id3] + step
					f3 = feat[id3]
				}
			}
			dst := od[i*oc : i*oc+nc]
			f.addLeaf(dst, id0, f0)
			f.addLeaf(dst, id1, f1)
			f.addLeaf(dst, id2, f2)
			f.addLeaf(dst, id3, f3)
		}
	}
	for ; t < len(roots); t++ {
		root := roots[t]
		for i := lo; i < hi; i++ {
			row := xd[i*xc : (i+1)*xc]
			id := root
			ft := feat[id]
			for ft >= 0 {
				// Conditional-select phrasing (not a guarded increment) so
				// the compiler emits SETcc instead of a branch: the split
				// direction is data-dependent and near 50/50. NaN routes
				// right, exactly like `!(v <= thr)`.
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
}

// addLeaf adds scale times the entries of leaf id, whose feat is ft, into
// the row dst. A one-entry leaf is one multiply-add from its own node; the
// entry table is read only for leaves with two or more.
func (f *Flat) addLeaf(dst []float64, id, ft int32) {
	if ft == -1 {
		dst[f.kids[id]] += f.scale * f.thr[id]
		return
	}
	off := f.kids[id]
	for _, e := range f.entries[off : off-ft] {
		dst[e.Class] += f.scale * e.Value
	}
}
