// Package drift opens the closed-set assumption of the challenge: a
// production fleet constantly sees workloads outside the ten Table I
// families, and a closed-set classifier silently mislabels every one of
// them. This package supplies the two signals the serving plane needs to
// notice:
//
//   - per-prediction open-set scores — max-softmax confidence, top-two
//     margin, and an energy-style score over the classifier's class
//     probabilities — with a rejection Threshold calibrated on held-out
//     in-distribution scores at training time, so a live prediction can be
//     flagged "unknown" without changing the prediction itself;
//   - windowed input-drift statistics — a per-sensor Population Stability
//     Index (PSI) of the live telemetry against a Reference histogram
//     fitted on the raw training windows, aggregated into one fleet drift
//     score — so an operator sees the input distribution moving before
//     accuracy quietly decays.
//
// A Calibration bundles both, travels inside the .wcc artifact as an
// optional section (older artifacts simply serve with drift disabled), and
// is consumed by fleet.Monitor: every inference tick annotates predictions
// with scores and a rejected flag, and every ingested sample lands in a
// histogram Window that shards merge exactly like tick stats. On the hot
// path a sample costs one binary search per sensor, and a prediction costs
// a handful of float compares plus one exact nearest-reference search
// (search.go) that sums a few dozen of the stored rows, not all of them.
package drift

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mat"
)

// Defaults for Options; FitThreshold and FitReference apply them when a
// field is zero.
const (
	// DefaultQuantile is the calibration quantile: each score threshold is
	// placed so roughly (1-q) of held-out in-distribution predictions land
	// past it.
	DefaultQuantile = 0.99
	// DefaultTemperature sharpens the energy score; see ScoreProbs.
	DefaultTemperature = 0.5
	// DefaultFeatQuantile is the feature-space gate's calibration
	// quantile. It sits below DefaultQuantile deliberately: the
	// nearest-neighbour distance is the only score that catches
	// confidently-misrouted far-OOD inputs, so its rule trades a few
	// percent of in-distribution false flags for most of the rejection
	// recall.
	DefaultFeatQuantile = 0.95
	// DefaultBins is the per-sensor histogram resolution of a Reference.
	DefaultBins = 16
)

// probFloor keeps log-probabilities finite for zero class probabilities
// (tree ensembles emit exact zeros for classes no tree voted for).
const probFloor = 1e-12

// Score is one prediction's open-set evidence. Higher Conf and Margin mean
// more in-distribution; higher Energy and FeatDist mean less.
type Score struct {
	// Conf is the max-softmax confidence: the winning class's probability.
	Conf float64
	// Margin is the gap between the top two class probabilities.
	Margin float64
	// Energy is -T·log Σᵢ exp(log(pᵢ)/T): near zero for a confident
	// prediction, approaching T·log(numClasses) as the class distribution
	// flattens toward uniform.
	Energy float64
	// FeatDist is the feature-space distance from the training support:
	// the Euclidean distance, in per-feature standardised coordinates, to
	// the nearest stored training embedding (see FeatureStats).
	// Probability scores alone cannot flag inputs far outside the training
	// support — an ensemble routes such points down consistent paths and
	// votes *confidently* on them — so this is the score that catches
	// workloads whose covariance structure training never produced.
	FeatDist float64
}

// ScoreProbs computes the open-set scores for one probability row.
// temperature ≤ 0 selects DefaultTemperature.
func ScoreProbs(p []float64, temperature float64) Score {
	if temperature <= 0 {
		temperature = DefaultTemperature
	}
	var best, second, sum float64
	for _, v := range p {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
		sum += math.Exp(math.Log(math.Max(v, probFloor)) / temperature)
	}
	return Score{Conf: best, Margin: best - second, Energy: -temperature * math.Log(sum)}
}

// Threshold is a calibrated rejection rule over open-set scores. A
// prediction is rejected as unknown when any score lands past its
// calibrated tail: confidence or margin below the in-distribution
// (1-Quantile) tail, or energy / feature distance above the Quantile tail.
type Threshold struct {
	// Temperature is the energy temperature the thresholds were fitted
	// with; serving must score with the same value.
	Temperature float64
	// Quantile records the calibration quantile, for provenance.
	Quantile float64
	// MinConf, MinMargin, MaxEnergy and MaxFeatDist are the fitted cut
	// points. MaxFeatDist 0 disables the feature gate (calibrations fitted
	// without feature rows).
	MinConf     float64
	MinMargin   float64
	MaxEnergy   float64
	MaxFeatDist float64
}

// Reject reports whether the scores fall outside the calibrated
// in-distribution region. Comparisons are strict, so scores exactly on a
// cut point (common with small ensembles whose probabilities are coarse
// vote fractions) stay accepted.
func (t *Threshold) Reject(s Score) bool {
	if s.Conf < t.MinConf || s.Margin < t.MinMargin || s.Energy > t.MaxEnergy {
		return true
	}
	return t.MaxFeatDist > 0 && s.FeatDist > t.MaxFeatDist
}

// FitThreshold calibrates a rejection threshold on held-out
// in-distribution probability rows (typically the test split's predicted
// probabilities): each cut point is placed at the requested quantile of
// the observed scores, so roughly (1-quantile) of in-distribution
// predictions trip each rule. quantile ≤ 0 selects DefaultQuantile,
// temperature ≤ 0 DefaultTemperature.
func FitThreshold(probs *mat.Matrix, quantile, temperature float64) (Threshold, error) {
	if probs == nil || probs.Rows == 0 || probs.Cols == 0 {
		return Threshold{}, errors.New("drift: no probability rows to calibrate on")
	}
	if quantile <= 0 {
		quantile = DefaultQuantile
	}
	if quantile >= 1 {
		return Threshold{}, fmt.Errorf("drift: calibration quantile %v must be in (0, 1)", quantile)
	}
	if temperature <= 0 {
		temperature = DefaultTemperature
	}
	confs := make([]float64, probs.Rows)
	margins := make([]float64, probs.Rows)
	energies := make([]float64, probs.Rows)
	for i := 0; i < probs.Rows; i++ {
		s := ScoreProbs(probs.Row(i), temperature)
		if math.IsNaN(s.Conf) || math.IsNaN(s.Energy) {
			return Threshold{}, fmt.Errorf("drift: non-finite score on calibration row %d", i)
		}
		confs[i], margins[i], energies[i] = s.Conf, s.Margin, s.Energy
	}
	sort.Float64s(confs)
	sort.Float64s(margins)
	sort.Float64s(energies)
	return Threshold{
		Temperature: temperature,
		Quantile:    quantile,
		MinConf:     quantileOf(confs, 1-quantile),
		MinMargin:   quantileOf(margins, 1-quantile),
		MaxEnergy:   quantileOf(energies, quantile),
	}, nil
}

// MaxTrainRows caps the training embeddings a FeatureStats stores: fitting
// subsamples evenly past this, bounding the artifact size (a few hundred
// KiB) and the search index built over the rows (as much again, per
// calibration). The per-prediction search prunes, so its cost grows far
// slower than this cap.
const MaxTrainRows = 2048

// FeatureStats is the training feature support the feature-space gate
// measures against: per-feature standardisation statistics plus the
// (standardised, possibly subsampled) training rows themselves — the
// covariance embeddings, for the serving pipeline. The open-set score is
// the distance to the nearest stored row; per-feature envelopes alone are
// too loose, because the embedding's product features are heavy-tailed
// enough that genuinely unseen inputs hide inside the marginal tails.
type FeatureStats struct {
	Means []float64
	Stds  []float64
	// Train holds the standardised training rows the distance is measured
	// against.
	Train *mat.Matrix

	// idx is the search structure Distance runs on (search.go): derived from
	// Train alone, never persisted, built once.
	once sync.Once
	idx  *searchIndex
}

// check refuses statistics the gate cannot measure against. One non-finite
// value anywhere makes every distance +Inf or NaN, which calibrates
// MaxFeatDist to +Inf and silently switches the gate off.
func (fs *FeatureStats) check() error {
	for j, m := range fs.Means {
		if s := fs.Stds[j]; math.IsNaN(m) || math.IsInf(m, 0) || math.IsInf(s, 0) || !(s > 0) {
			return fmt.Errorf("feature %d has mean %v, std %v", j, m, s)
		}
	}
	for i, v := range fs.Train.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("reference row %d holds %v", i/fs.Train.Cols, v)
		}
	}
	return nil
}

// FitFeatureStats standardises the training feature rows (constant
// features get std 1) and stores up to MaxTrainRows of them, subsampled
// evenly, as the nearest-neighbour reference set. Non-finite feature values
// (or finite ones whose variance overflows) are refused, like FitReference
// refuses non-finite samples.
func FitFeatureStats(x *mat.Matrix) (*FeatureStats, error) {
	if x == nil || x.Rows == 0 || x.Cols == 0 {
		return nil, errors.New("drift: no feature rows to fit statistics on")
	}
	fs := &FeatureStats{Means: make([]float64, x.Cols), Stds: make([]float64, x.Cols)}
	inv := 1.0 / float64(x.Rows)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			fs.Means[j] += v * inv
		}
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - fs.Means[j]
			fs.Stds[j] += d * d * inv
		}
	}
	for j, v := range fs.Stds {
		fs.Stds[j] = math.Sqrt(v)
		if fs.Stds[j] == 0 {
			fs.Stds[j] = 1
		}
	}
	keep := x.Rows
	if keep > MaxTrainRows {
		keep = MaxTrainRows
	}
	fs.Train = mat.New(keep, x.Cols)
	for i := 0; i < keep; i++ {
		// Even subsampling keeps every class region represented (training
		// rows are laid out in dataset order, so striding spans them all).
		src := x.Row(i * x.Rows / keep)
		dst := fs.Train.Row(i)
		for j, v := range src {
			dst[j] = (v - fs.Means[j]) / fs.Stds[j]
		}
	}
	if err := fs.check(); err != nil {
		return nil, fmt.Errorf("drift: non-finite training features: %w", err)
	}
	fs.index()
	return fs, nil
}

// quantileOf returns the nearest-rank q-quantile of a sorted slice.
func quantileOf(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Reference is the training-time input distribution: one equal-mass
// histogram per sensor over the raw (unscaled) telemetry values of the
// training windows. Live samples are binned against it and compared with
// PSI.
type Reference struct {
	// Bins is the per-sensor bin count.
	Bins int
	// Edges[c] holds Bins-1 ascending interior edges for sensor c; a value
	// v lands in the first bin whose edge exceeds it (the last bin when
	// none does), so the outer bins are open-ended.
	Edges [][]float64
	// Props[c][b] is the fraction of training values of sensor c observed
	// in bin b (ties at quantile edges make the masses uneven).
	Props [][]float64
}

// FitReference builds the per-sensor reference histograms from raw
// training samples (rows are telemetry samples, columns sensors — flatten
// the training windows). Edges sit at equally spaced quantiles, so bins
// carry equal mass up to ties. bins ≤ 0 selects DefaultBins.
func FitReference(samples *mat.Matrix, bins int) (*Reference, error) {
	if samples == nil || samples.Rows == 0 || samples.Cols == 0 {
		return nil, errors.New("drift: no samples to fit a reference on")
	}
	if bins <= 0 {
		bins = DefaultBins
	}
	if bins < 2 {
		return nil, fmt.Errorf("drift: need at least 2 bins, got %d", bins)
	}
	r := &Reference{
		Bins:  bins,
		Edges: make([][]float64, samples.Cols),
		Props: make([][]float64, samples.Cols),
	}
	col := make([]float64, samples.Rows)
	for c := 0; c < samples.Cols; c++ {
		for i := 0; i < samples.Rows; i++ {
			v := samples.Row(i)[c]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("drift: non-finite training value for sensor %d", c)
			}
			col[i] = v
		}
		sort.Float64s(col)
		edges := make([]float64, bins-1)
		for k := 1; k < bins; k++ {
			edges[k-1] = quantileOf(col, float64(k)/float64(bins))
		}
		props := make([]float64, bins)
		for _, v := range col {
			props[binOf(edges, v)]++
		}
		inv := 1.0 / float64(len(col))
		for b := range props {
			props[b] *= inv
		}
		r.Edges[c] = edges
		r.Props[c] = props
	}
	return r, nil
}

// Sensors returns the sensor count the reference was fitted for.
func (r *Reference) Sensors() int { return len(r.Edges) }

// Bin returns the bin index a live value of the given sensor falls in.
func (r *Reference) Bin(sensor int, v float64) int {
	return binOf(r.Edges[sensor], v)
}

// binOf locates v among ascending interior edges: the first bin whose edge
// is above v, the last bin when none is. NaN (which compares false
// everywhere) lands in the last bin rather than corrupting an index.
func binOf(edges []float64, v float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Window accumulates live per-sensor histogram counts — the serving-side
// half of a PSI comparison. It is a plain value with no internal locking;
// fleet shards guard their own windows and merge copies for reads.
type Window struct {
	// Sensors and Bins fix the count layout.
	Sensors int
	Bins    int
	// Counts is the row-major [sensor][bin] histogram.
	Counts []uint64
	// Samples is the number of telemetry samples accumulated.
	Samples uint64
}

// NewWindow allocates an empty accumulation window.
func NewWindow(sensors, bins int) *Window {
	return &Window{Sensors: sensors, Bins: bins, Counts: make([]uint64, sensors*bins)}
}

// Add bins one telemetry sample (one value per sensor) against the
// reference. The sample width must match the reference's sensor count.
func (w *Window) Add(ref *Reference, sample []float64) {
	for c, v := range sample {
		w.Counts[c*w.Bins+ref.Bin(c, v)]++
	}
	w.Samples++
}

// Merge adds another window's counts into w. The windows must share the
// same layout.
func (w *Window) Merge(o *Window) {
	for i, n := range o.Counts {
		w.Counts[i] += n
	}
	w.Samples += o.Samples
}

// Clone returns an independent copy of the window.
func (w *Window) Clone() *Window {
	out := &Window{Sensors: w.Sensors, Bins: w.Bins, Samples: w.Samples}
	out.Counts = append([]uint64(nil), w.Counts...)
	return out
}

// psiFloor keeps the PSI logarithms finite for empty bins on either side.
const psiFloor = 1e-4

// PSI computes the per-sensor Population Stability Index of the window
// against the reference: Σ_b (p_b - q_b)·ln(p_b/q_b) with live proportion
// p and reference proportion q, both floored at 1e-4. By the usual survey
// convention PSI < 0.1 is stable, 0.1-0.25 moderate drift, > 0.25 major
// drift. An empty window reports zero for every sensor.
func (r *Reference) PSI(w *Window) []float64 {
	out := make([]float64, w.Sensors)
	if w.Samples == 0 {
		return out
	}
	inv := 1.0 / float64(w.Samples)
	for c := 0; c < w.Sensors; c++ {
		psi := 0.0
		for b := 0; b < w.Bins; b++ {
			p := math.Max(float64(w.Counts[c*w.Bins+b])*inv, psiFloor)
			q := math.Max(r.Props[c][b], psiFloor)
			psi += (p - q) * math.Log(p/q)
		}
		out[c] = psi
	}
	return out
}

// FleetScore aggregates per-sensor PSI values into the single fleet drift
// score the serving plane exposes: the maximum, so drift concentrated in
// one sensor is not averaged away by six stable ones.
func FleetScore(psi []float64) float64 {
	best := 0.0
	for _, v := range psi {
		if v > best {
			best = v
		}
	}
	return best
}

// PSI bands: the conventional reading of a Population Stability Index,
// used wherever the serving plane turns a continuous drift score into an
// operator-facing state (the /v1/events drift-crossing events, the
// dashboard's drift panel).
const (
	// BandStable is a PSI below 0.1: the live input matches training.
	BandStable = "stable"
	// BandModerate is a PSI in [0.1, 0.25): distribution shift worth
	// watching.
	BandModerate = "moderate"
	// BandMajor is a PSI of 0.25 or more: the input has left the training
	// distribution.
	BandMajor = "major"
)

// Band maps a drift score (a PSI, typically FleetScore's max) to its
// conventional band name.
func Band(score float64) string {
	switch {
	case score < 0.1:
		return BandStable
	case score < 0.25:
		return BandModerate
	default:
		return BandMajor
	}
}

// RejectionTally scores open-set verdicts against known ground truth —
// the bookkeeping wccserve and wccload share when they inject
// out-of-distribution workloads and read the fleet's unknown flags back.
type RejectionTally struct {
	// ClassifiedUnknown counts truly out-of-distribution jobs that
	// received a verdict, Flagged every job flagged unknown, and TruePos
	// the overlap.
	ClassifiedUnknown int
	Flagged           int
	TruePos           int
}

// Add records one classified job's verdict.
func (t *RejectionTally) Add(trulyUnknown, flaggedUnknown bool) {
	if trulyUnknown {
		t.ClassifiedUnknown++
	}
	if flaggedUnknown {
		t.Flagged++
		if trulyUnknown {
			t.TruePos++
		}
	}
}

// Recall returns the fraction of truly unknown jobs flagged unknown
// (0 when none were classified).
func (t *RejectionTally) Recall() float64 {
	if t.ClassifiedUnknown == 0 {
		return 0
	}
	return float64(t.TruePos) / float64(t.ClassifiedUnknown)
}

// Precision returns the fraction of flagged jobs that were truly unknown
// (0 when nothing was flagged).
func (t *RejectionTally) Precision() float64 {
	if t.Flagged == 0 {
		return 0
	}
	return float64(t.TruePos) / float64(t.Flagged)
}

// Report renders the tally for a command's summary output — shared by
// wccserve and wccload so CI's `rejection recall` assertions match both.
// Empty when no truly-unknown job was classified.
func (t *RejectionTally) Report() string {
	if t.ClassifiedUnknown == 0 {
		return ""
	}
	out := fmt.Sprintf("  rejection recall:    %.2f (%d/%d out-of-distribution jobs flagged unknown)\n",
		t.Recall(), t.TruePos, t.ClassifiedUnknown)
	if t.Flagged > 0 {
		out += fmt.Sprintf("  rejection precision: %.2f (%d/%d flagged jobs truly unknown)\n",
			t.Precision(), t.TruePos, t.Flagged)
	}
	return out
}

// Calibration bundles everything drift-aware serving needs, fitted at
// training time and persisted as an optional .wcc artifact section: the
// rejection threshold over open-set scores, the training feature
// statistics behind the feature-space gate, and the input reference
// histograms.
type Calibration struct {
	Threshold Threshold
	// Feat backs the feature-space distance score; nil when the
	// calibration was fitted without feature rows (the gate is then off).
	Feat *FeatureStats
	Ref  *Reference
}

// Score computes a prediction's full open-set evidence: the probability
// scores plus, when the calibration carries feature statistics, the
// feature-space distance of the embedding row the prediction came from.
func (c *Calibration) Score(probs, features []float64) Score {
	s := ScoreProbs(probs, c.Threshold.Temperature)
	if c.Feat != nil {
		s.FeatDist = c.Feat.Distance(features)
	}
	return s
}

// Options configures Fit. Zero fields select the package defaults.
type Options struct {
	// Quantile is the probability-score calibration quantile
	// (DefaultQuantile).
	Quantile float64
	// FeatQuantile is the feature-space gate's calibration quantile
	// (DefaultFeatQuantile).
	FeatQuantile float64
	// Temperature is the energy temperature (DefaultTemperature).
	Temperature float64
	// Bins is the per-sensor reference histogram resolution (DefaultBins).
	Bins int
}

// FitInput carries the training and held-out material Fit calibrates on.
type FitInput struct {
	// Probs holds held-out in-distribution probability rows (typically
	// the model's predictions on the test split). Required.
	Probs *mat.Matrix
	// TrainFeatures holds the training feature rows the feature-space
	// statistics are fitted on, and HeldOutFeatures the held-out rows the
	// distance cut point is calibrated on (row i must correspond to
	// Probs row i). Both nil disables the feature gate.
	TrainFeatures   *mat.Matrix
	HeldOutFeatures *mat.Matrix
	// RawSamples holds raw telemetry samples (rows samples, columns
	// sensors — flattened training windows) for the PSI reference.
	// Required.
	RawSamples *mat.Matrix
}

// Fit calibrates a full drift calibration: the rejection threshold from
// held-out in-distribution scores, feature statistics from the training
// rows, and the input reference from raw training samples.
func Fit(in FitInput, opts Options) (*Calibration, error) {
	thr, err := FitThreshold(in.Probs, opts.Quantile, opts.Temperature)
	if err != nil {
		return nil, err
	}
	c := &Calibration{Threshold: thr}
	if (in.TrainFeatures == nil) != (in.HeldOutFeatures == nil) {
		return nil, errors.New("drift: feature gating needs both training and held-out feature rows")
	}
	if in.TrainFeatures != nil {
		if in.HeldOutFeatures.Rows != in.Probs.Rows {
			return nil, fmt.Errorf("drift: %d held-out feature rows for %d probability rows",
				in.HeldOutFeatures.Rows, in.Probs.Rows)
		}
		fq := opts.FeatQuantile
		if fq <= 0 {
			fq = DefaultFeatQuantile
		}
		if fq >= 1 {
			return nil, fmt.Errorf("drift: feature calibration quantile %v must be in (0, 1)", fq)
		}
		fs, err := FitFeatureStats(in.TrainFeatures)
		if err != nil {
			return nil, err
		}
		dists := make([]float64, in.HeldOutFeatures.Rows)
		for i := range dists {
			dists[i] = fs.Distance(in.HeldOutFeatures.Row(i))
		}
		sort.Float64s(dists)
		c.Feat = fs
		c.Threshold.MaxFeatDist = quantileOf(dists, fq)
	}
	ref, err := FitReference(in.RawSamples, opts.Bins)
	if err != nil {
		return nil, err
	}
	c.Ref = ref
	return c, nil
}
