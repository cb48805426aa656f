package xgb

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// codecVersion is the xgb payload format; bump on incompatible layout
// changes so old readers fail descriptively instead of misloading.
const codecVersion = 1

// Encode serialises the fitted ensemble: config, shape, feature importances,
// the per-round training loss / eval accuracy curves, and every regression
// tree. Decode restores a classifier whose predictions are bit-identical to
// the original.
func (c *Classifier) Encode(w io.Writer) error {
	if c.trees == nil {
		return errors.New("xgb: cannot encode an unfitted classifier")
	}
	ww := wire.NewWriter(w)
	ww.U16(codecVersion)
	ww.Int(c.cfg.NumRounds)
	ww.F64(c.lr)
	ww.Int(maxDepth) // retired MaxDepth slot
	ww.F64(c.cfg.Gamma)
	ww.F64(c.cfg.Lambda)
	ww.F64(c.cfg.Alpha)
	ww.F64(minChildWeight) // retired MinChildWeight slot
	ww.F64(1)              // retired Subsample slot: every row
	ww.Int(0)              // retired Workers slot
	ww.I64(0)              // retired Seed slot
	ww.Int(c.NumClasses())
	ww.Int(c.NumFeatures())
	ww.F64s(c.gainImp)
	ww.F64s(c.weightImp)
	ww.F64s(c.TrainLoss)
	ww.F64s(c.EvalAccuracy)
	ww.Int(len(c.trees))
	for _, round := range c.trees {
		if len(round) != c.NumClasses() {
			return fmt.Errorf("xgb: round has %d trees, want %d", len(round), c.NumClasses())
		}
		for _, tr := range round {
			encodeRegTree(ww, tr)
		}
	}
	return ww.Err()
}

func encodeRegTree(ww *wire.Writer, t *regTree) {
	ww.Int(len(t.nodes))
	for i := range t.nodes {
		nd := &t.nodes[i]
		ww.Bool(nd.leaf)
		if nd.leaf {
			ww.F64(nd.weight)
		} else {
			ww.Int(nd.feature)
			ww.F64(nd.threshold)
			ww.Int(nd.left)
			ww.Int(nd.right)
		}
	}
}

// Decode reads a classifier previously written by Encode, validating node
// indices so corrupted input errors instead of panicking at prediction time.
func Decode(r io.Reader) (*Classifier, error) {
	rr := wire.NewReader(r)
	if v := rr.U16(); rr.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("xgb: unsupported codec version %d (this build reads %d)", v, codecVersion)
	}
	c := &Classifier{}
	c.cfg.NumRounds = rr.Int()
	c.lr = rr.F64()
	rr.Int() // retired MaxDepth slot
	c.cfg.Gamma = rr.F64()
	c.cfg.Lambda = rr.F64()
	c.cfg.Alpha = rr.F64()
	rr.F64() // retired MinChildWeight slot
	rr.F64() // retired Subsample slot
	rr.Int() // retired Workers slot
	rr.I64() // retired Seed slot
	numClasses := rr.Int()
	numFeats := rr.Int()
	c.gainImp = rr.F64s()
	c.weightImp = rr.F64s()
	c.TrainLoss = rr.F64s()
	c.EvalAccuracy = rr.F64s()
	rounds := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if numClasses < 2 || numFeats < 1 || rounds < 1 || rounds > 1<<20 {
		return nil, fmt.Errorf("xgb: corrupt header (%d classes, %d features, %d rounds)", numClasses, numFeats, rounds)
	}
	if len(c.gainImp) != numFeats || len(c.weightImp) != numFeats {
		return nil, fmt.Errorf("xgb: importance lengths %d/%d for %d features", len(c.gainImp), len(c.weightImp), numFeats)
	}
	for ri := 0; ri < rounds; ri++ { // counts are claims: trees are kept as they arrive
		var round []*regTree
		for k := 0; k < numClasses; k++ {
			tr, err := decodeRegTree(rr, numFeats)
			if err != nil {
				return nil, fmt.Errorf("xgb: round %d class %d: %w", ri, k, err)
			}
			round = append(round, tr)
		}
		c.trees = append(c.trees, round)
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	var err error
	if c.Ensemble, err = compile(c.trees, c.lr, numFeats, numClasses); err != nil {
		return nil, err
	}
	return c, nil
}

func decodeRegTree(rr *wire.Reader, numFeats int) (*regTree, error) {
	numNodes := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if numNodes < 1 || numNodes > 1<<27 {
		return nil, fmt.Errorf("corrupt node count %d", numNodes)
	}
	t := &regTree{nodes: make([]regNode, 0, min(numNodes, 1<<10))}
	for i := 0; i < numNodes && rr.Err() == nil; i++ {
		var nd regNode
		nd.leaf = rr.Bool()
		if nd.leaf {
			nd.weight = rr.F64()
		} else {
			nd.feature = rr.Int()
			nd.threshold = rr.F64()
			nd.left = rr.Int()
			nd.right = rr.Int()
			if rr.Err() == nil {
				if nd.feature < 0 || nd.feature >= numFeats {
					return nil, fmt.Errorf("node %d splits on feature %d of %d", i, nd.feature, numFeats)
				}
				// Children must point forward, as grow() lays them out; this
				// also rules out traversal cycles.
				if nd.left <= i || nd.left >= numNodes || nd.right <= i || nd.right >= numNodes {
					return nil, fmt.Errorf("node %d has out-of-range children (%d, %d)", i, nd.left, nd.right)
				}
			}
		}
		t.nodes = append(t.nodes, nd)
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
