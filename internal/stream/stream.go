// Package stream implements online workload classification — the paper's
// future-work deployment scenario: classify snapshots of live workloads
// from a sliding window of telemetry.
//
// A WindowedEmbedder maintains a ring buffer of the most recent W samples
// and incrementally updates the second-moment sums the covariance embedding
// needs, so each new sample costs O(C²) instead of recomputing the O(W·C²)
// embedding, and a prediction can be requested at any time.
package stream

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/preprocess"
)

// Classifier is any model consuming one embedded feature row.
type Classifier interface {
	PredictProba(x *mat.Matrix) (*mat.Matrix, error)
}

// WindowedEmbedder turns a live sample stream into covariance features over
// a sliding window, standardised with offline (training-time) statistics.
type WindowedEmbedder struct {
	window  int
	sensors int
	scaler  *preprocess.StandardScaler

	ring  []float64 // window×sensors ring buffer of standardised samples
	head  int       // next write position (in samples)
	count int       // samples seen (saturates at window)

	// sums[a][b] accumulates Σ zₐ·z_b over the current window (upper
	// triangle only).
	sums []float64
}

// MaxSensors is the widest sample an embedder takes: Push stages a
// sample's standardised values in a stack buffer of this length. The
// served shape has 7 sensors.
const MaxSensors = 64

// NewWindowedEmbedder builds an embedder for the given window length and
// sensor count. The scaler must have been fitted on flattened training
// windows of the same shape (window·sensors columns), and must pass
// preprocess.StandardScaler.Check: one zero, negative or NaN std would
// turn every feature the embedder serves into NaN.
func NewWindowedEmbedder(window, sensors int, scaler *preprocess.StandardScaler) (*WindowedEmbedder, error) {
	s, err := CheckShape(window, sensors, scaler)
	if err != nil {
		return nil, err
	}
	return s.NewEmbedder(), nil
}

// Shape is a window shape and scaler that CheckShape accepted. Only
// CheckShape builds one, so a caller that builds embedders later (fleet.New
// checks once, before its first job registers) holds the proof of the check
// and never repeats it.
type Shape struct {
	window, sensors int
	scaler          *preprocess.StandardScaler
}

// CheckShape is NewWindowedEmbedder's check: a window of at least 2
// samples, 1 to MaxSensors sensors, and a scaler over window·sensors
// columns that StandardScaler.Check accepts.
func CheckShape(window, sensors int, scaler *preprocess.StandardScaler) (Shape, error) {
	if window < 2 || sensors < 1 || sensors > MaxSensors {
		return Shape{}, fmt.Errorf("stream: invalid window shape %dx%d (at most %d sensors)", window, sensors, MaxSensors)
	}
	if scaler == nil || len(scaler.Means) != window*sensors {
		return Shape{}, errors.New("stream: scaler not fitted for this window shape")
	}
	if err := scaler.Check(); err != nil {
		return Shape{}, fmt.Errorf("stream: %w", err)
	}
	return Shape{window: window, sensors: sensors, scaler: scaler}, nil
}

// NewEmbedder builds an empty embedder of this shape.
func (s Shape) NewEmbedder() *WindowedEmbedder {
	return &WindowedEmbedder{
		window:  s.window,
		sensors: s.sensors,
		scaler:  s.scaler,
		ring:    make([]float64, s.window*s.sensors),
		sums:    make([]float64, preprocess.CovarianceDim(s.sensors)),
	}
}

// Window returns the sliding-window length in samples.
func (s Shape) Window() int { return s.window }

// Sensors returns the values per sample.
func (s Shape) Sensors() int { return s.sensors }

// Scaler returns the training-time statistics every window is standardised
// with.
func (s Shape) Scaler() *preprocess.StandardScaler { return s.scaler }

// Push adds one telemetry sample (one value per sensor). The sample is
// standardised with the column statistics of the ring position it lands in,
// matching how offline training standardised flattened windows. Once the
// ring is full, one pass over the sums evicts the oldest sample and adds the
// new one: sums[k] = (sums[k] − oldₐ·old_b) + zₐ·z_b, the order in which a
// subtracting pass followed by an adding pass would round.
//
// Where mat.AVX512 holds, a sample of at most pushLanes sensors takes
// pushAVX512, which forms the same values with the same roundings. It runs
// before the ring wraps too: the slot it evicts is then still the ring's
// +0, and s − (+0)·(+0) is s bit for bit.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (w *WindowedEmbedder) Push(sample []float64) error {
	if len(sample) != w.sensors {
		return fmt.Errorf("stream: sample has %d sensors, want %d", len(sample), w.sensors)
	}
	base := w.head * w.sensors
	slot := w.ring[base : base+len(sample)]
	means := w.scaler.Means[base : base+len(sample)]
	stds := w.scaler.Stds[base : base+len(sample)]
	if len(sample) <= pushLanes && mat.AVX512() {
		pushAVX512(w.sums, slot, sample, means, stds, &pairIndex[len(sample)])
	} else {
		// The new standardised values wait here while the slot still holds
		// the sample they evict.
		var buf [MaxSensors]float64
		z := buf[:len(sample)]
		for c, v := range sample {
			z[c] = (v - means[c]) / stds[c]
		}
		sums := w.sums
		k := 0
		if w.count >= w.window {
			for a, oa := range slot {
				za := z[a]
				for b := a; b < len(z); b++ {
					sums[k] = (sums[k] - oa*slot[b]) + za*z[b]
					k++
				}
			}
		} else {
			for a, za := range z {
				for b := a; b < len(z); b++ {
					sums[k] += za * z[b]
					k++
				}
			}
		}
		copy(slot, z)
	}
	if w.count < w.window {
		w.count++
	}
	w.head++
	if w.head == w.window {
		w.head = 0
	}
	return nil
}

// pushLanes is the widest sample pushAVX512 takes: one sample fills at most
// one 8-lane register.
const pushLanes = 8

// pairSteps is the most 8-lane steps pushAVX512 takes over the triangle:
// ⌈36/8⌉ for 8 sensors.
const pairSteps = (pushLanes*(pushLanes+1)/2 + 7) / 8

// pairIndex[n] is pushAVX512's pair table for n sensors: lane l of step s
// holds a in [s][0][l] and b in [s][1][l], the sensors whose product
// sums[8s+l] accumulates (the upper triangle, row by row). Lanes past the
// triangle's end hold 0.
var pairIndex = func() (t [pushLanes + 1][pairSteps][2][8]int64) {
	for n := 1; n <= pushLanes; n++ {
		k := 0
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				t[n][k/8][0][k%8], t[n][k/8][1][k%8] = int64(a), int64(b)
				k++
			}
		}
	}
	return t
}()

// Ready reports whether a full window has been observed.
func (w *WindowedEmbedder) Ready() bool { return w.count >= w.window }

// Features returns the current covariance embedding (1×C(C+1)/2 matrix),
// or an error before the first full window.
func (w *WindowedEmbedder) Features() (*mat.Matrix, error) {
	out := mat.New(1, len(w.sums))
	if err := w.FeaturesInto(out.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// FeaturesInto writes the current covariance embedding into dst, which must
// have length FeatureDim. It is the allocation-free variant of Features used
// by batched serving paths that assemble many jobs' features into one matrix.
//
//wcc:hotpath zero allocations per call, pinned by an AllocsPerRun gate
func (w *WindowedEmbedder) FeaturesInto(dst []float64) error {
	if !w.Ready() {
		return fmt.Errorf("stream: only %d of %d samples seen", w.count, w.window)
	}
	if len(dst) != len(w.sums) {
		return fmt.Errorf("stream: destination length %d, want %d", len(dst), len(w.sums))
	}
	inv := 1.0 / float64(w.window-1)
	for i, s := range w.sums {
		dst[i] = s * inv
	}
	return nil
}

// FeatureDim returns the length of the embedding Features produces.
func (w *WindowedEmbedder) FeatureDim() int { return len(w.sums) }

// Monitor couples an embedder with a trained classifier.
type Monitor struct {
	Embedder *WindowedEmbedder
	Model    Classifier
}

// Prediction is one live classification snapshot.
type Prediction struct {
	Class       int
	Probability float64
	Probs       []float64
	// Open carries open-set annotations when the serving layer scores
	// predictions against a drift calibration (see internal/drift); nil
	// when open-set detection is disabled. Class, Probability and Probs
	// are identical either way — scoring annotates, it never alters.
	Open *OpenSet
}

// Unknown reports whether the prediction carries an open-set verdict that
// rejected it as an unknown workload. False when open-set detection is
// disabled — the shorthand every consumer of the verdict (event emission,
// HTTP responses, load-driver scoring) shares.
func (p *Prediction) Unknown() bool {
	return p != nil && p.Open != nil && p.Open.Rejected
}

// OpenSet is one prediction's open-set verdict: its feature distance from
// the training support and whether the calibrated feature gate rejected the
// prediction as an unknown workload.
type OpenSet struct {
	// Margin and Energy are always 0. They once held probability scores that
	// decided nothing; only the frozen benchmark/http.go still compares them,
	// and they go when that file next changes.
	Margin float64
	Energy float64
	// FeatDist is the feature-space distance from the training
	// distribution (see drift.FeatureStats); 0 when the calibration has
	// no feature gate.
	FeatDist float64
	// Rejected marks FeatDist as past the calibrated cut point — an
	// unknown workload.
	Rejected bool
}

// Classify returns the model's current belief, or an error before the
// window has filled.
func (m *Monitor) Classify() (*Prediction, error) {
	feats, err := m.Embedder.Features()
	if err != nil {
		return nil, err
	}
	probs, err := m.Model.PredictProba(feats)
	if err != nil {
		return nil, err
	}
	row := probs.Row(0)
	best := mat.ArgMax(row)
	return &Prediction{Class: best, Probability: row[best], Probs: row}, nil
}
