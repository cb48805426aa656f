package tree

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// codecVersion is the tree payload format; bump on incompatible layout
// changes so old readers fail descriptively instead of misloading.
const codecVersion = 1

// Encode serialises the fitted tree: config, shape, the node array, and the
// accumulated Gini importances. Decode restores a tree whose predictions are
// bit-identical to the original.
func (t *Classifier) Encode(w io.Writer) error {
	if len(t.nodes) == 0 {
		return errors.New("tree: cannot encode an unfitted tree")
	}
	ww := wire.NewWriter(w)
	ww.U16(codecVersion)
	ww.Int(t.cfg.MaxDepth)
	ww.Int(t.cfg.MinSamplesSplit)
	ww.Int(t.cfg.MinSamplesLeaf)
	ww.Int(t.cfg.MaxFeatures)
	ww.I64(t.cfg.Seed)
	ww.Int(t.numClasses)
	ww.Int(t.numFeats)
	ww.Int(len(t.nodes))
	for i := range t.nodes {
		nd := &t.nodes[i]
		ww.Bool(nd.leaf)
		if nd.leaf {
			ww.F64s(nd.probs)
		} else {
			ww.Int(nd.feature)
			ww.F64(nd.threshold)
			ww.Int(nd.left)
			ww.Int(nd.right)
		}
	}
	ww.F64s(t.importance)
	return ww.Err()
}

// Decode reads a tree previously written by Encode, validating node indices
// and distribution shapes so corrupted input errors instead of panicking at
// prediction time.
func Decode(r io.Reader) (*Classifier, error) {
	rr := wire.NewReader(r)
	if v := rr.U16(); rr.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("tree: unsupported codec version %d (this build reads %d)", v, codecVersion)
	}
	t := &Classifier{}
	t.cfg.MaxDepth = rr.Int()
	t.cfg.MinSamplesSplit = rr.Int()
	t.cfg.MinSamplesLeaf = rr.Int()
	t.cfg.MaxFeatures = rr.Int()
	t.cfg.Seed = rr.I64()
	t.numClasses = rr.Int()
	t.numFeats = rr.Int()
	numNodes := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if t.numClasses < 2 || t.numFeats < 1 || numNodes < 1 || numNodes > 1<<27 {
		return nil, fmt.Errorf("tree: corrupt header (%d classes, %d features, %d nodes)", t.numClasses, t.numFeats, numNodes)
	}
	t.nodes = make([]node, 0, min(numNodes, 1<<10)) // a claim: nodes are kept as they arrive
	for i := 0; i < numNodes && rr.Err() == nil; i++ {
		var nd node
		nd.leaf = rr.Bool()
		if nd.leaf {
			nd.probs = rr.F64s()
			if rr.Err() == nil && len(nd.probs) != t.numClasses {
				return nil, fmt.Errorf("tree: node %d has %d class probabilities, want %d", i, len(nd.probs), t.numClasses)
			}
		} else {
			nd.feature = rr.Int()
			nd.threshold = rr.F64()
			nd.left = rr.Int()
			nd.right = rr.Int()
			if rr.Err() == nil {
				if nd.feature < 0 || nd.feature >= t.numFeats {
					return nil, fmt.Errorf("tree: node %d splits on feature %d of %d", i, nd.feature, t.numFeats)
				}
				// Children must point forward to preserve the array layout
				// grow() produces; this also rules out traversal cycles.
				if nd.left <= i || nd.left >= numNodes || nd.right <= i || nd.right >= numNodes {
					return nil, fmt.Errorf("tree: node %d has out-of-range children (%d, %d)", i, nd.left, nd.right)
				}
			}
		}
		t.nodes = append(t.nodes, nd)
	}
	t.importance = rr.F64s()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if len(t.importance) != t.numFeats {
		return nil, fmt.Errorf("tree: %d importances for %d features", len(t.importance), t.numFeats)
	}
	return t, nil
}
