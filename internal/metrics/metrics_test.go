package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{0, 1, 2, 1}, []int{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", acc)
	}
	if _, err := Accuracy([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm, err := NewConfusionMatrix([]int{0, 0, 1, 1, 2}, []int{0, 1, 1, 1, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Counts[0][0] != 1 || cm.Counts[0][1] != 1 || cm.Counts[1][1] != 2 || cm.Counts[2][0] != 1 {
		t.Errorf("counts = %v", cm.Counts)
	}
	if math.Abs(cm.Accuracy()-0.6) > 1e-12 {
		t.Errorf("accuracy = %v", cm.Accuracy())
	}
	if _, err := NewConfusionMatrix([]int{5}, []int{0}, 3); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, err := NewConfusionMatrix([]int{0}, []int{0, 1}, 3); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestPerClassStats(t *testing.T) {
	// Class 0: tp=2 fp=1 fn=0 → precision 2/3, recall 1.
	cm, _ := NewConfusionMatrix([]int{0, 0, 1}, []int{0, 0, 0}, 2)
	stats := cm.PerClass()
	if math.Abs(stats[0].Precision-2.0/3) > 1e-12 || stats[0].Recall != 1 {
		t.Errorf("class 0 stats = %+v", stats[0])
	}
	if stats[1].Recall != 0 || stats[1].Precision != 0 || stats[1].F1 != 0 {
		t.Errorf("class 1 stats = %+v", stats[1])
	}
	if stats[0].Support != 2 || stats[1].Support != 1 {
		t.Errorf("supports = %d, %d", stats[0].Support, stats[1].Support)
	}
}

func TestMacroF1PerfectPrediction(t *testing.T) {
	y := []int{0, 1, 2, 0, 1, 2}
	cm, _ := NewConfusionMatrix(y, y, 3)
	if cm.MacroF1() != 1 {
		t.Errorf("perfect macro F1 = %v", cm.MacroF1())
	}
}

func TestMacroF1IgnoresEmptyClasses(t *testing.T) {
	cm, _ := NewConfusionMatrix([]int{0, 0}, []int{0, 0}, 5)
	if cm.MacroF1() != 1 {
		t.Errorf("macro F1 with absent classes = %v", cm.MacroF1())
	}
}

func TestMostConfused(t *testing.T) {
	cm, _ := NewConfusionMatrix(
		[]int{0, 0, 0, 1, 1, 2},
		[]int{1, 1, 1, 0, 0, 2}, 3)
	top := cm.MostConfused(2)
	if len(top) != 2 {
		t.Fatalf("got %d cells", len(top))
	}
	if top[0] != [3]int{0, 1, 3} {
		t.Errorf("top confusion = %v, want [0 1 3]", top[0])
	}
	if top[1] != [3]int{1, 0, 2} {
		t.Errorf("second confusion = %v, want [1 0 2]", top[1])
	}
}

func TestReport(t *testing.T) {
	rep, err := Report([]int{0, 1, 1}, []int{0, 1, 0}, 2, []string{"VGG11", "Bert"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "VGG11") || !strings.Contains(rep, "Bert") {
		t.Errorf("report missing class names:\n%s", rep)
	}
	if !strings.Contains(rep, "accuracy") || !strings.Contains(rep, "macro F1") {
		t.Errorf("report missing summary rows:\n%s", rep)
	}
	if _, err := Report([]int{0}, []int{9}, 2, nil); err == nil {
		t.Error("bad labels should fail")
	}
}

// TestAccuracyMatchesConfusionTrace property: Accuracy and the confusion
// matrix trace must always agree.
func TestAccuracyMatchesConfusionTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		k := 1 + rng.Intn(10)
		yt := make([]int, n)
		yp := make([]int, n)
		for i := range yt {
			yt[i] = rng.Intn(k)
			yp[i] = rng.Intn(k)
		}
		acc, err := Accuracy(yt, yp)
		if err != nil {
			return false
		}
		cm, err := NewConfusionMatrix(yt, yp, k)
		if err != nil {
			return false
		}
		return math.Abs(acc-cm.Accuracy()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPerClassRecallBounds property: precision/recall/F1 are in [0,1] and
// supports sum to n.
func TestPerClassRecallBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		k := 2 + rng.Intn(6)
		yt := make([]int, n)
		yp := make([]int, n)
		for i := range yt {
			yt[i] = rng.Intn(k)
			yp[i] = rng.Intn(k)
		}
		cm, err := NewConfusionMatrix(yt, yp, k)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range cm.PerClass() {
			if s.Precision < 0 || s.Precision > 1 || s.Recall < 0 || s.Recall > 1 || s.F1 < 0 || s.F1 > 1 {
				return false
			}
			total += s.Support
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuantileNearestRank: Quantile, which the server's tick-latency
// quantiles and wccload's percentiles both read, is nearest-rank, the
// ⌈q·n⌉-th smallest, and 0 of nothing. Rounding q·n instead reads one rank
// low whenever its fraction is below one half: 0.95 of a full 512-tick
// window is rank 486.4, so the 487th value.
func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int // index into the sorted slice
	}{
		{512, 0.95, 486},
		{20, 0.51, 10},
		{1, 0.5, 0},
		{1, 0.99, 0},
		{10, 0, 0},
		{10, 1, 9},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i)
		}
		if got := Quantile(sorted, tc.q); got != sorted[tc.want] {
			t.Errorf("n=%d q=%v: index %d, want %d", tc.n, tc.q, int(got), tc.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing: %v, want 0", got)
	}
}
