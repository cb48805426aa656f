package adapt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
)

// Trainer turns clustered families into a candidate artifact: a model
// covering the base classes plus one new class per family, with scaler
// statistics byte-identical to the serving fleet's and a drift calibration
// refreshed over the widened class set. Implementations may be slow (the
// provenance trainer regenerates the training set); the Manager never calls
// Train on the tick path.
type Trainer interface {
	Train(families []Family) (*artifact.Artifact, error)
}

// CandidateOptions parameterises BuildCandidateArtifact.
type CandidateOptions struct {
	// BaseMeta is the serving artifact's metadata; the candidate inherits
	// its provenance and window shape — never its Kind, which follows the
	// candidate's own model — and appends novel class names to its
	// ClassNames. len(ClassNames), when non-zero, fixes the base class
	// count.
	BaseMeta artifact.Metadata
	// Trees sizes the candidate forest (default 50); BaseMeta.Seed seeds
	// its fit.
	Trees int
	// Quantile and FeatQuantile configure the refreshed drift calibration
	// (package drift defaults when zero).
	Quantile     float64
	FeatQuantile float64
	// Tool names the producer in the candidate's metadata (default
	// "adapt").
	Tool string
}

// heldOutEvery reserves every n-th family row for calibration instead of
// training, so the refreshed threshold sees held-out novel-class scores the
// model did not memorise.
const heldOutEvery = 4

// BuildCandidateArtifact widens the base feature pair with one new class per
// family and hands it to core.TrainArtifact — the training path every
// artifact comes through — which fits the candidate forest and calibrates a
// fresh drift section over the widened class set. fp must be built against
// the serving scaler (core.CovFeaturesWith) — the candidate reuses it
// verbatim, which is what lets the hot-swap compatibility gate accept the
// artifact — and family rows must be in the same feature space, which they
// are by construction (they came from the serving embedders). raw holds raw
// telemetry samples for the PSI reference, typically the regenerated
// training windows.
//
// Both the in-process flywheel (ProvenanceTrainer) and the offline
// `wcctrain -families` path build candidates through here, so the two
// produce identical artifacts from identical inputs.
func BuildCandidateArtifact(fp *core.FeaturePair, raw *mat.Matrix, fams []Family, o CandidateOptions) (*artifact.Artifact, error) {
	if len(fams) == 0 {
		return nil, errors.New("adapt: no families to train on")
	}
	if fp == nil || fp.TrainX == nil || fp.TestX == nil {
		return nil, errors.New("adapt: candidate training needs base train and test features")
	}
	if fp.Scaler == nil {
		return nil, errors.New("adapt: feature pair carries no scaler (candidate must reuse the serving scaler)")
	}
	dim := fp.TrainX.Cols
	numBase := len(o.BaseMeta.ClassNames)
	if numBase == 0 {
		for _, y := range fp.TrainY {
			if y+1 > numBase {
				numBase = y + 1
			}
		}
	}
	if o.Trees <= 0 {
		o.Trees = 50
	}
	if o.Tool == "" {
		o.Tool = "adapt"
	}

	// Widen: base rows keep their labels, family i becomes class numBase+i,
	// and every heldOutEvery-th family row joins the held-out rows instead,
	// after the base test split — whose labels alone (fp.TestY) measure the
	// candidate's accuracy.
	trainX := &mat.Matrix{Cols: dim, Data: append([]float64(nil), fp.TrainX.Data...)}
	trainY := append([]int(nil), fp.TrainY...)
	heldX := &mat.Matrix{Cols: dim, Data: append([]float64(nil), fp.TestX.Data...)}
	for fi, f := range fams {
		if f.Rows == nil || f.Rows.Cols != dim {
			return nil, fmt.Errorf("adapt: family %d rows do not have the base's %d features", f.ID, dim)
		}
		for r := 0; r < f.Rows.Rows; r++ {
			if r%heldOutEvery == heldOutEvery-1 {
				heldX.Data = append(heldX.Data, f.Rows.Row(r)...)
				continue
			}
			trainX.Data = append(trainX.Data, f.Rows.Row(r)...)
			trainY = append(trainY, numBase+fi)
		}
	}
	trainX.Rows, heldX.Rows = len(trainY), len(heldX.Data)/dim
	wide := &core.FeaturePair{TrainX: trainX, TrainY: trainY, TestX: heldX, TestY: fp.TestY, Scaler: fp.Scaler}

	meta := o.BaseMeta
	meta.Tool = o.Tool
	f := forest.New(forest.Config{NumTrees: o.Trees, Bootstrap: true, Seed: meta.Seed})
	fit := func() error { return f.Fit(wide.TrainX, wide.TrainY, numBase+len(fams)) }
	a, _, err := core.TrainArtifact(meta, wide, f, fit, raw, drift.Options{Quantile: o.Quantile, FeatQuantile: o.FeatQuantile})
	if err != nil {
		return nil, fmt.Errorf("adapt: training candidate: %w", err)
	}
	// Novel numbering continues across generations: a base that already
	// grew novel classes keeps them and the new ones pick up after.
	a.Meta.ClassNames = append([]string(nil), meta.ClassNames...)
	for range fams {
		a.Meta.ClassNames = append(a.Meta.ClassNames, telemetry.NovelClassName(a.Meta.NovelClasses))
		a.Meta.NovelClasses++
	}
	a.Meta.AdaptedFrom = fmt.Sprintf("%s/%d-class base", o.BaseMeta.Tool, numBase)
	return a, nil
}

// ProvenanceTrainer is the production Trainer: it regenerates the base
// training set from the serving artifact's recorded provenance
// (core.Provenance.Regenerate), re-embeds it with the serving scaler — never
// refits one — and widens it with the clustered families.
type ProvenanceTrainer struct {
	// Meta is the serving artifact's metadata (Dataset, Scale, Seed,
	// MaxTrain, MaxTest, ClassNames drive regeneration).
	Meta artifact.Metadata
	// Scaler is the serving scaler, reused verbatim.
	Scaler *preprocess.StandardScaler
	// Base is the serving model: the candidate forest gets as many trees as
	// a base forest has (CandidateOptions' default when Base is anything
	// else, or nil).
	Base artifact.Model
	// Quantile and FeatQuantile configure the refreshed calibration
	// (package drift defaults when zero).
	Quantile, FeatQuantile float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// NewProvenanceTrainer is the trainer for candidates grown from base:
// everything a retrain inherits from the serving artifact — provenance,
// scaler, forest size, and the quantile its calibration recorded, so a base
// calibrated off the default is not silently re-calibrated at it. The
// feature-gate quantile is not persisted in the drift section, so
// FeatQuantile starts at the package default.
func NewProvenanceTrainer(base *artifact.Artifact, logf func(format string, args ...any)) *ProvenanceTrainer {
	t := &ProvenanceTrainer{Meta: base.Meta, Scaler: base.Scaler, Base: base.Model, Logf: logf}
	if base.Drift != nil {
		t.Quantile = base.Drift.Threshold.Quantile
	}
	return t
}

// Train implements Trainer.
func (t *ProvenanceTrainer) Train(fams []Family) (*artifact.Artifact, error) {
	fp, raw, err := t.baseFeatures()
	if err != nil {
		return nil, err
	}
	trees := 0
	if f, ok := t.Base.(*forest.Classifier); ok {
		trees = f.NumTrees()
	}
	a, err := BuildCandidateArtifact(fp, raw, fams, CandidateOptions{
		BaseMeta:     t.Meta,
		Trees:        trees,
		Quantile:     t.Quantile,
		FeatQuantile: t.FeatQuantile,
		Tool:         "wccserve-adapt",
	})
	if err != nil {
		return nil, err
	}
	t.logf("adapt: candidate trained: %d classes (%d novel), base accuracy %.3f",
		len(a.Meta.ClassNames), len(fams), a.Meta.Accuracy)
	return a, nil
}

// baseFeatures regenerates the base set the serving model was fitted on and
// embeds it with the serving scaler; raw is its training windows' sensor
// samples for the candidate's PSI reference.
func (t *ProvenanceTrainer) baseFeatures() (*core.FeaturePair, *mat.Matrix, error) {
	if t.Scaler == nil {
		return nil, nil, errors.New("adapt: provenance trainer needs the serving scaler")
	}
	t.logf("adapt: regenerating %s (scale %g, seed %d) for candidate training", t.Meta.Dataset, t.Meta.Scale, t.Meta.Seed)
	_, ch, err := core.ProvenanceOf(t.Meta).Regenerate()
	if err != nil {
		return nil, nil, err
	}
	fp, err := core.CovFeaturesWith(ch, t.Scaler)
	if err != nil {
		return nil, nil, err
	}
	return fp, core.RawSensorSamples(ch.Train.X), nil
}

func (t *ProvenanceTrainer) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// familiesFile is the JSON wire form of an exported family set, served on
// GET /v1/adapt/families and consumed by `wcctrain -families`.
type familiesFile struct {
	FeatureDim int          `json:"feature_dim"`
	Families   []familyJSON `json:"families"`
}

type familyJSON struct {
	ID       int         `json:"id"`
	Count    int         `json:"count"`
	Centroid []float64   `json:"centroid"`
	Rows     [][]float64 `json:"rows"`
}

// EncodeFamilies writes the family set as JSON, full member rows included,
// so an offline `wcctrain -families` run can rebuild the exact candidate
// the in-process flywheel would.
func EncodeFamilies(w io.Writer, fams []Family) error {
	out := familiesFile{Families: make([]familyJSON, len(fams))}
	for i, f := range fams {
		if f.Rows != nil {
			out.FeatureDim = f.Rows.Cols
		}
		fj := familyJSON{ID: f.ID, Count: f.Count, Centroid: f.Centroid}
		if f.Rows != nil {
			fj.Rows = make([][]float64, f.Rows.Rows)
			for r := range fj.Rows {
				fj.Rows[r] = append([]float64(nil), f.Rows.Row(r)...)
			}
		}
		out.Families[i] = fj
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// DecodeFamilies reads a family set written by EncodeFamilies.
func DecodeFamilies(r io.Reader) ([]Family, error) {
	var in familiesFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("adapt: decoding families: %w", err)
	}
	fams := make([]Family, 0, len(in.Families))
	for _, fj := range in.Families {
		f := Family{ID: fj.ID, Count: fj.Count, Centroid: fj.Centroid}
		if len(fj.Rows) > 0 {
			dim := len(fj.Rows[0])
			if in.FeatureDim > 0 && dim != in.FeatureDim {
				return nil, fmt.Errorf("adapt: family %d rows have %d features, header says %d", fj.ID, dim, in.FeatureDim)
			}
			f.Rows = mat.New(len(fj.Rows), dim)
			for r, row := range fj.Rows {
				if len(row) != dim {
					return nil, fmt.Errorf("adapt: family %d row %d has %d features, want %d", fj.ID, r, len(row), dim)
				}
				copy(f.Rows.Data[r*dim:(r+1)*dim], row)
			}
			f.Count = len(fj.Rows)
		}
		fams = append(fams, f)
	}
	return fams, nil
}
