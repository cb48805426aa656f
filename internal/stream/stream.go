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
	if err := CheckShape(window, sensors, scaler); err != nil {
		return nil, err
	}
	return &WindowedEmbedder{
		window:  window,
		sensors: sensors,
		scaler:  scaler,
		ring:    make([]float64, window*sensors),
		sums:    make([]float64, preprocess.CovarianceDim(sensors)),
	}, nil
}

// CheckShape is NewWindowedEmbedder's check, for a caller that builds
// embedders later (fleet.New refuses a shape before its first job
// registers): a window of at least 2 samples, 1 to MaxSensors sensors, and a
// scaler over window·sensors columns that StandardScaler.Check accepts.
func CheckShape(window, sensors int, scaler *preprocess.StandardScaler) error {
	if window < 2 || sensors < 1 || sensors > MaxSensors {
		return fmt.Errorf("stream: invalid window shape %dx%d (at most %d sensors)", window, sensors, MaxSensors)
	}
	if scaler == nil || len(scaler.Means) != window*sensors {
		return errors.New("stream: scaler not fitted for this window shape")
	}
	if err := scaler.Check(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Push adds one telemetry sample (one value per sensor). The sample is
// standardised with the column statistics of the ring position it lands in,
// matching how offline training standardised flattened windows. Once the
// ring is full, one pass over the sums evicts the oldest sample and adds the
// new one: sums[k] = (sums[k] − oldₐ·old_b) + zₐ·z_b, the order in which a
// subtracting pass followed by an adding pass would round.
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
	// The new standardised values wait here while the slot still holds the
	// sample they evict.
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
		w.count++
	}
	copy(slot, z)
	w.head++
	if w.head == w.window {
		w.head = 0
	}
	return nil
}

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
