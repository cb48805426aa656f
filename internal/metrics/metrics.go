// Package metrics provides the classification metrics used to score the
// challenge: accuracy (the challenge's criterion), confusion matrices and
// per-class precision/recall/F1 reports; and the one nearest-rank quantile
// the serving plane's latency reports read.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Accuracy returns the fraction of predictions equal to the true labels.
func Accuracy(yTrue, yPred []int) (float64, error) {
	if len(yTrue) != len(yPred) {
		return 0, fmt.Errorf("metrics: %d labels vs %d predictions", len(yTrue), len(yPred))
	}
	if len(yTrue) == 0 {
		return 0, errors.New("metrics: empty inputs")
	}
	correct := 0
	for i, y := range yTrue {
		if yPred[i] == y {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue)), nil
}

// ConfusionMatrix counts prediction outcomes: cell (i, j) is the number of
// trials with true class i predicted as class j.
type ConfusionMatrix struct {
	NumClasses int
	Counts     [][]int
}

// NewConfusionMatrix tallies a confusion matrix over numClasses classes.
func NewConfusionMatrix(yTrue, yPred []int, numClasses int) (*ConfusionMatrix, error) {
	if len(yTrue) != len(yPred) {
		return nil, fmt.Errorf("metrics: %d labels vs %d predictions", len(yTrue), len(yPred))
	}
	cm := &ConfusionMatrix{NumClasses: numClasses, Counts: make([][]int, numClasses)}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, numClasses)
	}
	for i, y := range yTrue {
		p := yPred[i]
		if y < 0 || y >= numClasses || p < 0 || p >= numClasses {
			return nil, fmt.Errorf("metrics: label/prediction (%d, %d) out of range [0,%d)", y, p, numClasses)
		}
		cm.Counts[y][p]++
	}
	return cm, nil
}

// Accuracy returns the trace fraction of the confusion matrix.
func (cm *ConfusionMatrix) Accuracy() float64 {
	total, diag := 0, 0
	for i, row := range cm.Counts {
		for j, c := range row {
			total += c
			if i == j {
				diag += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// ClassStats holds the per-class precision/recall/F1 triple.
type ClassStats struct {
	Class     int
	Support   int
	Precision float64
	Recall    float64
	F1        float64
}

// PerClass computes precision, recall and F1 for every class.
func (cm *ConfusionMatrix) PerClass() []ClassStats {
	stats := make([]ClassStats, cm.NumClasses)
	for c := 0; c < cm.NumClasses; c++ {
		var tp, fp, fn int
		for j := 0; j < cm.NumClasses; j++ {
			if j == c {
				tp = cm.Counts[c][c]
				continue
			}
			fn += cm.Counts[c][j]
			fp += cm.Counts[j][c]
		}
		s := ClassStats{Class: c, Support: tp + fn}
		if tp+fp > 0 {
			s.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			s.Recall = float64(tp) / float64(tp+fn)
		}
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
		stats[c] = s
	}
	return stats
}

// MacroF1 averages F1 over classes with non-zero support.
func (cm *ConfusionMatrix) MacroF1() float64 {
	stats := cm.PerClass()
	var sum float64
	n := 0
	for _, s := range stats {
		if s.Support > 0 {
			sum += s.F1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MostConfused returns the top-k off-diagonal cells by count, useful for
// inspecting which sub-architectures the classifier mixes up.
func (cm *ConfusionMatrix) MostConfused(k int) [][3]int {
	type cell struct{ t, p, n int }
	var cells []cell
	for i, row := range cm.Counts {
		for j, c := range row {
			if i != j && c > 0 {
				cells = append(cells, cell{i, j, c})
			}
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].n > cells[b].n })
	if k > len(cells) {
		k = len(cells)
	}
	out := make([][3]int, k)
	for i := 0; i < k; i++ {
		out[i] = [3]int{cells[i].t, cells[i].p, cells[i].n}
	}
	return out
}

// Report renders a scikit-learn-style classification report. classNames may
// be nil, in which case numeric labels are printed.
func Report(yTrue, yPred []int, numClasses int, classNames []string) (string, error) {
	cm, err := NewConfusionMatrix(yTrue, yPred, numClasses)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s\n", "class", "precision", "recall", "f1", "support")
	for _, s := range cm.PerClass() {
		name := fmt.Sprintf("%d", s.Class)
		if classNames != nil && s.Class < len(classNames) {
			name = classNames[s.Class]
		}
		fmt.Fprintf(&b, "%-16s %9.3f %9.3f %9.3f %9d\n", name, s.Precision, s.Recall, s.F1, s.Support)
	}
	fmt.Fprintf(&b, "%-16s %39.3f\n", "accuracy", cm.Accuracy())
	fmt.Fprintf(&b, "%-16s %39.3f\n", "macro F1", cm.MacroF1())
	return b.String(), nil
}

// Quantile returns the nearest-rank q-quantile of sorted durations: the
// ⌈q·n⌉-th smallest, the first for q ≤ 0 and the last for q ≥ 1; 0 when
// there are none.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
