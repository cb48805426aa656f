package xgb

import (
	"fmt"

	"repro/internal/tree"
)

// compile compiles the ensemble into the shared flat layout (tree.Flat) in
// boosting order — the tree for class k becomes a tree of one-entry leaves
// for class k, each adding lr·weight, the order Fit adds each round's
// trees in — and softmaxes each row's scores (tree.NewSoftmax).
func compile(trees [][]*regTree, lr float64, numFeats, numClasses int) (tree.Ensemble, error) {
	fl := tree.NewFlat(numClasses, lr)
	for ri, round := range trees {
		for k, t := range round {
			if err := fl.Add(t.export(), k); err != nil {
				return tree.Ensemble{}, fmt.Errorf("xgb: round %d class %d: %w", ri, k, err)
			}
		}
	}
	return tree.NewSoftmax(fl, numFeats), nil
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
