package forest

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/tree"
	"repro/internal/wire"
)

// codecVersion is the forest payload format; bump on incompatible layout
// changes so old readers fail descriptively instead of misloading.
const codecVersion = 1

// Encode serialises the fitted ensemble: config, shape, and every tree.
// Decode compiles the flat form again, so predictions are bit-identical to
// the original model.
func (f *Classifier) Encode(w io.Writer) error {
	if len(f.trees) == 0 {
		return errors.New("forest: cannot encode an unfitted forest")
	}
	ww := wire.NewWriter(w)
	ww.U16(codecVersion)
	ww.Int(f.cfg.NumTrees)
	ww.Int(f.cfg.MaxDepth)
	ww.Int(f.cfg.MaxFeatures)
	ww.Int(f.cfg.MinSamplesLeaf)
	ww.Bool(f.cfg.Bootstrap)
	ww.Int(0) // retired Workers slot
	ww.I64(f.cfg.Seed)
	ww.Int(f.numClasses)
	ww.Int(f.numFeats)
	ww.Int(len(f.trees))
	if err := ww.Err(); err != nil {
		return err
	}
	for _, t := range f.trees {
		if err := t.Encode(w); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a forest previously written by Encode.
func Decode(r io.Reader) (*Classifier, error) {
	rr := wire.NewReader(r)
	if v := rr.U16(); rr.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("forest: unsupported codec version %d (this build reads %d)", v, codecVersion)
	}
	f := &Classifier{}
	f.cfg.NumTrees = rr.Int()
	f.cfg.MaxDepth = rr.Int()
	f.cfg.MaxFeatures = rr.Int()
	f.cfg.MinSamplesLeaf = rr.Int()
	f.cfg.Bootstrap = rr.Bool()
	rr.Int() // retired Workers slot
	f.cfg.Seed = rr.I64()
	f.numClasses = rr.Int()
	f.numFeats = rr.Int()
	numTrees := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if f.numClasses < 2 || f.numFeats < 1 || numTrees < 1 || numTrees > 1<<20 {
		return nil, fmt.Errorf("forest: corrupt header (%d classes, %d features, %d trees)", f.numClasses, f.numFeats, numTrees)
	}
	f.trees = make([]*tree.Classifier, numTrees)
	for i := range f.trees {
		t, err := tree.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		// Each tree's own header must agree with the forest's, or a crafted
		// payload could smuggle in leaf distributions wider than the
		// forest's accumulator rows and panic at prediction time.
		if t.NumClasses() != f.numClasses || t.NumFeatures() != f.numFeats {
			return nil, fmt.Errorf("forest: tree %d fitted for %d classes / %d features, forest header says %d / %d",
				i, t.NumClasses(), t.NumFeatures(), f.numClasses, f.numFeats)
		}
		f.trees[i] = t
	}
	var err error
	if f.flat, err = compileFlat(f.trees, f.numClasses); err != nil {
		return nil, err
	}
	return f, nil
}
