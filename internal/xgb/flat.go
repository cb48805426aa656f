package xgb

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/tree"
)

// compileFlat compiles the ensemble into the shared flat layout
// (tree.Flat) in boosting order: the tree for class k becomes a tree of
// one-entry leaves for class k, each adding lr·weight.
func compileFlat(trees [][]*regTree, lr float64, numClasses int) (*tree.Flat, error) {
	fl := tree.NewFlat(numClasses, lr)
	for ri, round := range trees {
		for k, t := range round {
			if err := fl.Add(t.export(), k); err != nil {
				return nil, fmt.Errorf("xgb: round %d class %d: %w", ri, k, err)
			}
		}
	}
	return fl, nil
}

// export returns the tree's nodes in tree.ExportNode form, each leaf one
// entry holding its weight.
func (t *regTree) export() []tree.ExportNode {
	out := make([]tree.ExportNode, len(t.nodes))
	weights := make([]float64, len(t.nodes))
	for i, nd := range t.nodes {
		weights[i] = nd.weight
		out[i] = tree.ExportNode{Feature: nd.feature, Threshold: nd.threshold, Left: nd.left, Right: nd.right, Leaf: nd.leaf, Probs: weights[i : i+1]}
	}
	return out
}

// scoreBlock overwrites rows [lo, hi) of out with softmax probabilities:
// the shared kernel accumulates lr·weight in (round, class) order, the
// order Fit adds each round's trees in, then each row is softmaxed in place.
func (c *Classifier) scoreBlock(x, out *mat.Matrix, lo, hi int) {
	clear(out.Data[lo*out.Cols : hi*out.Cols])
	c.flat.ScoreBlock(x, out, lo, hi)
	for i := lo; i < hi; i++ {
		row := out.Row(i)
		softmaxInto(row, row)
	}
}
