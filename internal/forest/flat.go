package forest

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/tree"
)

// compileFlat compiles the ensemble into the shared flat layout
// (tree.Flat): each leaf adds its class distribution unscaled.
func compileFlat(trees []*tree.Classifier, numClasses int) (*tree.Flat, error) {
	fl := tree.NewFlat(numClasses, 1)
	for i, t := range trees {
		if err := fl.Add(t.ExportNodes(), 0); err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
	}
	return fl, nil
}

// scoreBlock overwrites rows [lo, hi) of out with the ensemble's averaged
// leaf distributions: the shared kernel sums the trees in ensemble order,
// then one scaling per entry averages — the float order of summing each
// tree's tree.PredictProbaRow and multiplying by 1/trees.
func (f *Classifier) scoreBlock(x, out *mat.Matrix, lo, hi int) {
	block := out.Data[lo*out.Cols : hi*out.Cols]
	clear(block)
	f.flat.ScoreBlock(x, out, lo, hi)
	inv := 1.0 / float64(len(f.trees))
	for c := range block {
		block[c] *= inv
	}
}
