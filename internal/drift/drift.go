// Package drift opens the closed-set assumption of the challenge: a
// production fleet constantly sees workloads outside the ten Table I
// families, and a closed-set classifier silently mislabels every one of
// them. This package supplies the two signals the serving plane needs to
// notice:
//
//   - a per-prediction open-set verdict — the distance of the embedding row
//     from the training support, against a cut point calibrated on held-out
//     in-distribution rows at training time — so a live prediction can be
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
// with a feature distance and a rejected flag, and every ingested sample
// lands in a histogram Window that shards merge exactly like tick stats. On
// the hot path a sample costs one table lookup per sensor, and a prediction
// costs one exact nearest-reference search (search.go) that sums a few dozen
// of the stored rows, not all of them. The probabilities play no part.
package drift

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/mat"
)

// Defaults for Options; Fit and FitReference apply them when a field is
// zero.
const (
	// DefaultQuantile is the feature-space gate's calibration quantile: the
	// cut point is placed so roughly (1-q) of held-out in-distribution rows
	// land past it.
	DefaultQuantile = 0.95
	// DefaultBins is the per-sensor histogram resolution of a Reference.
	DefaultBins = 16
)

// Score is one prediction's open-set evidence.
type Score struct {
	// FeatDist is the feature-space distance from the training support:
	// the Euclidean distance, in per-feature standardised coordinates, to
	// the nearest stored training embedding (see FeatureStats).
	// Probability scores cannot flag inputs far outside the training
	// support — an ensemble routes such points down consistent paths and
	// votes *confidently* on them — so this is the score the verdict uses.
	FeatDist float64
}

// Threshold is the open-set rule: a prediction is unknown when its feature
// distance lies past the cut point calibrated on held-out in-distribution
// rows.
type Threshold struct {
	// Quantile is the calibration quantile the cut point was placed at; 0
	// when the section predates the feature-only rule and recorded none.
	Quantile float64
	// MaxFeatDist is the cut point. 0 disables the gate (calibrations
	// fitted without feature rows).
	MaxFeatDist float64
}

// Reject reports whether the prediction lies outside the calibrated
// in-distribution region. The comparison is strict, so a row exactly on the
// cut point stays accepted.
func (t *Threshold) Reject(s Score) bool {
	return t.MaxFeatDist > 0 && s.FeatDist > t.MaxFeatDist
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
	return sorted[quantileIndex(len(sorted), q)]
}

// quantileIndex is the position quantileOf reads in a sorted slice of n.
func quantileIndex(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// selectRanks permutes a[lo:hi] so that a[p] holds the value a sorted
// a[lo:hi] would hold there, for every position p in ps (ascending, repeats
// allowed, all in [lo, hi)). It is a quickselect after several targets at
// once, with three-way partitions so that a run of equal values — integer
// telemetry is full of them — is settled in one pass. budget bounds the
// partition rounds; a range left when it runs out is sorted.
func selectRanks(a []float64, lo, hi int, ps []int, budget int) {
	for len(ps) > 0 {
		if hi-lo <= 16 || budget == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		budget--
		pivot := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// a[lo:lt] < pivot, a[lt:gt] == pivot, a[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		below := sort.SearchInts(ps, lt)
		selectRanks(a, lo, lt, ps[:below], budget)
		lo, ps = gt, ps[sort.SearchInts(ps, gt):]
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
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
	pos := make([]int, bins-1)
	for k := range pos {
		pos[k] = quantileIndex(len(col), float64(k+1)/float64(bins))
	}
	for c := 0; c < samples.Cols; c++ {
		for i := 0; i < samples.Rows; i++ {
			v := samples.Row(i)[c]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("drift: non-finite training value for sensor %d", c)
			}
			col[i] = v
		}
		// The edges are order statistics, so selecting them leaves the
		// same values sorting col would, and the counts below do not
		// depend on col's order.
		selectRanks(col, 0, len(col), pos, 2*bits.Len(uint(len(col))))
		edges := make([]float64, bins-1)
		for k, p := range pos {
			edges[k] = col[p]
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

// check refuses a histogram PSI cannot score. A NaN proportion makes its
// sensor's PSI NaN, which FleetScore's max skips, so that sensor's drift
// goes unseen; an infinite one pins the fleet score at +Inf, so every read
// says major; a negative one is no mass at all. Edges must be finite and
// must not descend, as binOf's binary search assumes; equal edges stay
// legal, because equal-mass edges repeat on a sensor that barely varies.
// Every sensor needs Bins−1 edges and Bins proportions, or Ingest and
// DriftStats index past them.
func (r *Reference) check() error {
	if len(r.Edges) == 0 || r.Bins < 2 || len(r.Props) != len(r.Edges) {
		return fmt.Errorf("%d sensors, %d proportion rows, %d bins", len(r.Edges), len(r.Props), r.Bins)
	}
	for c, edges := range r.Edges {
		if len(edges) != r.Bins-1 || len(r.Props[c]) != r.Bins {
			return fmt.Errorf("sensor %d histogram shape: %d edges, %d proportions", c, len(edges), len(r.Props[c]))
		}
		for b, e := range edges {
			if math.IsNaN(e) || math.IsInf(e, 0) || (b > 0 && e < edges[b-1]) {
				return fmt.Errorf("sensor %d edge %d is %v after %v", c, b, e, edges[max(b-1, 0)])
			}
		}
	}
	for c, props := range r.Props {
		for b, p := range props {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				return fmt.Errorf("sensor %d bin %d holds proportion %v", c, b, p)
			}
		}
	}
	return nil
}

// Sensors returns the sensor count the reference was fitted for.
func (r *Reference) Sensors() int { return len(r.Edges) }

// binOf locates v among ascending interior edges: the first bin whose edge
// is above v, the last bin when none is. NaN (which compares false
// everywhere) lands in the last bin rather than corrupting an index.
func binOf(edges []float64, v float64) int {
	return searchEdges(edges, v, 0, len(edges))
}

// searchEdges is binOf's binary search confined to edges[lo:hi], for a v
// known to have every edge below lo at or under it and every edge from hi
// on above it.
func searchEdges(edges []float64, v float64, lo, hi int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v < edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cellsPerEdge and maxCells size a BinTable: each sensor's span between its
// outer edges is cut into 8 equal cells per interior edge, so a cell rarely
// holds more than one edge, and into at most 1024, so a sensor's table
// stays within 4 KiB however many bins a decoded reference claims. The
// served reference has 15 edges a sensor: 120 cells.
const (
	cellsPerEdge = 8
	maxCells     = 1024
)

// BinTable bins live values exactly as binOf does against a Reference's
// edges, with a table lookup in place of most of the search. It is built
// once per reference (NewBinTable) and only read afterwards, so any number
// of windows may share it.
//
// Per sensor, the span [lo, hi] between the first and last edge is cut
// into G equal cells, and cell(v) = ⌊(v−lo)·G/(hi−lo)⌋ clamped to [0, G],
// with NaN in cell G. Rounded subtraction and multiplication are monotone,
// so cell is non-decreasing in v, whatever the rounding. first[i] counts
// the edges whose own cell is below i. An edge e in a lower cell than v's
// must satisfy e ≤ v, and an edge in a higher cell must satisfy e > v, so
// binOf(v) lies in [first[i], first[i+1]] for i = cell(v), and a binary
// search over the edges in between (usually zero or one of them) returns
// binOf's bin bit for bit, ties, ±0 and ±Inf included. NaN lands in the
// top cell, whose search runs to the last edge without moving, as binOf's
// does. A span that overflows, or whose scale would, gets one cell: the
// search is then binOf's own.
type BinTable struct {
	sensors []binCells
}

// binCells is one sensor's part of a BinTable.
type binCells struct {
	lo, scale float64
	top       float64  // G as a float, the bound of the unclamped cells
	first     []uint32 // G+2 entries; first[G+1] = len(edges)
	edges     []float64
}

// NewBinTable builds the lookup table for a reference Validate accepts:
// finite, non-descending edges.
func NewBinTable(r *Reference) *BinTable {
	t := &BinTable{sensors: make([]binCells, len(r.Edges))}
	for c, edges := range r.Edges {
		s := binCells{edges: edges}
		cells := 0
		if n := len(edges); n > 0 {
			s.lo = edges[0]
			cells = min(cellsPerEdge*n, maxCells)
			s.scale = float64(cells) / (edges[n-1] - s.lo)
			if !(s.scale > 0) || math.IsInf(s.scale, 1) {
				cells, s.scale = 0, 0
			}
		}
		s.top = float64(cells)
		s.first = make([]uint32, cells+2)
		for _, e := range edges {
			s.first[s.cell(e)+1]++
		}
		for i := 1; i < len(s.first); i++ {
			s.first[i] += s.first[i-1]
		}
		t.sensors[c] = s
	}
	return t
}

// cell returns v's cell. The comparisons are ordered so that NaN, and any
// x past the last unclamped cell, take the top cell before x meets the
// integer conversion: int of NaN or of an out-of-range float is not a
// number Go defines.
func (s *binCells) cell(v float64) int {
	x := (v - s.lo) * s.scale
	if x < s.top {
		if x > 0 {
			return int(x)
		}
		return 0
	}
	return len(s.first) - 2
}

// bin returns the bin a live value of the given sensor falls in: binOf
// against the sensor's edges.
func (t *BinTable) bin(sensor int, v float64) int {
	s := &t.sensors[sensor]
	i := s.cell(v)
	return searchEdges(s.edges, v, int(s.first[i]), int(s.first[i+1]))
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
// reference t was built from. The sample width must match the reference's
// sensor count.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (w *Window) Add(t *BinTable, sample []float64) {
	for c, v := range sample {
		// BinTable.bin, written out: the call is too large to inline, and
		// calling it per sensor made BenchmarkWindowAdd 76–90 ns a sample
		// against 63–72 (2 vCPUs).
		s := &t.sensors[c]
		i := s.cell(v)
		w.Counts[c*w.Bins+searchEdges(s.edges, v, int(s.first[i]), int(s.first[i+1]))]++
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
// feature-space gate's cut point, the training feature statistics it
// measures against, and the input reference histograms.
type Calibration struct {
	Threshold Threshold
	// Feat backs the feature-space distance score; nil when the
	// calibration was fitted without feature rows (the gate is then off).
	Feat *FeatureStats
	Ref  *Reference
}

// Validate refuses a calibration serving cannot score without panicking or
// without switching the gate off: a cut point that is not finite and
// non-negative, feature statistics of mismatched widths or values check
// refuses, and an input reference Reference.check refuses. Decode and
// fleet.CheckCalibration both run it, so a hand-built calibration is judged
// as a decoded one is.
func (c *Calibration) Validate() error {
	if d := c.Threshold.MaxFeatDist; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("drift: calibration: feature distance cut point %v", d)
	}
	if fs := c.Feat; fs != nil {
		if t := fs.Train; len(fs.Means) == 0 || len(fs.Stds) != len(fs.Means) ||
			t == nil || t.Rows == 0 || t.Cols != len(fs.Means) || len(t.Data) != t.Rows*t.Cols {
			return fmt.Errorf("drift: calibration: %d feature means, %d stds, reference rows missing or misshapen",
				len(fs.Means), len(fs.Stds))
		}
		if err := fs.check(); err != nil {
			return fmt.Errorf("drift: calibration: %w", err)
		}
	}
	if c.Ref == nil {
		return errors.New("drift: calibration carries no input reference")
	}
	if err := c.Ref.check(); err != nil {
		return fmt.Errorf("drift: calibration: %w", err)
	}
	return nil
}

// Score is the open-set evidence of a row scored on its own, with no proof
// to start from or to keep: ScoreCert's value, from one plain search. probs
// is ignored: the frozen benchmark/layers.go still passes it, and the
// parameter goes when that file next changes.
func (c *Calibration) Score(probs, features []float64) Score {
	if c.Feat == nil {
		return Score{}
	}
	return Score{FeatDist: c.Feat.Distance(features)}
}

// ScoreCert computes a prediction's open-set evidence: the feature-space
// distance of the embedding row the prediction came from, 0 when the
// calibration carries no feature statistics. cert is the proof the same
// caller's previous score left (FeatureStats.DistanceCert), read and renewed
// here; the score has the same bits whatever it holds.
func (c *Calibration) ScoreCert(features []float64, cert *Cert) Score {
	if c.Feat == nil {
		return Score{}
	}
	return Score{FeatDist: c.Feat.DistanceCert(features, cert)}
}

// Options configures Fit. Zero fields select the package defaults.
type Options struct {
	// Quantile is the feature-space gate's calibration quantile
	// (DefaultQuantile).
	Quantile float64
	// Bins is the per-sensor reference histogram resolution (DefaultBins).
	Bins int
}

// FitInput carries the training and held-out material Fit calibrates on.
type FitInput struct {
	// Probs is ignored. Only the frozen benchmark/setup.go still sets it,
	// and it goes when that file next changes.
	Probs *mat.Matrix
	// TrainFeatures holds the training feature rows the feature-space
	// statistics are fitted on, and HeldOutFeatures the held-out
	// in-distribution rows the distance cut point is calibrated on. Both nil
	// disables the feature gate.
	TrainFeatures   *mat.Matrix
	HeldOutFeatures *mat.Matrix
	// RawSamples holds raw telemetry samples (rows samples, columns
	// sensors — flattened training windows) for the PSI reference.
	// Required.
	RawSamples *mat.Matrix
}

// Fit calibrates a full drift calibration: feature statistics from the
// training rows, the gate's cut point at the Quantile of the held-out rows'
// distances, and the input reference from raw training samples.
func Fit(in FitInput, opts Options) (*Calibration, error) {
	q := opts.Quantile
	if q <= 0 {
		q = DefaultQuantile
	}
	if q >= 1 {
		return nil, fmt.Errorf("drift: calibration quantile %v must be in (0, 1)", q)
	}
	c := &Calibration{Threshold: Threshold{Quantile: q}}
	if (in.TrainFeatures == nil) != (in.HeldOutFeatures == nil) {
		return nil, errors.New("drift: feature gating needs both training and held-out feature rows")
	}
	if in.TrainFeatures != nil {
		if in.HeldOutFeatures.Rows == 0 {
			return nil, errors.New("drift: no held-out feature rows to calibrate on")
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
		c.Threshold.MaxFeatDist = quantileOf(dists, q)
	}
	ref, err := FitReference(in.RawSamples, opts.Bins)
	if err != nil {
		return nil, err
	}
	c.Ref = ref
	return c, nil
}
