package modelsel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestStratifiedKFoldErrors(t *testing.T) {
	if _, err := StratifiedKFold([]int{0, 1, 0, 1, 0}, 1, 1); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := StratifiedKFold([]int{0, 1, 0}, 5, 1); err == nil {
		t.Error("k>n should fail")
	}
}

func TestStratifiedKFoldBalance(t *testing.T) {
	// 40 of class 0, 10 of class 1 → each of 5 folds gets exactly 2 of
	// class 1.
	y := make([]int, 50)
	for i := 40; i < 50; i++ {
		y[i] = 1
	}
	folds, err := StratifiedKFold(y, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for f, fold := range folds {
		minority := 0
		for _, i := range fold.ValIdx {
			if y[i] == 1 {
				minority++
			}
		}
		if minority != 2 {
			t.Errorf("fold %d holds %d minority samples, want 2", f, minority)
		}
	}
}

// TestStratifiedKFoldPartitionProperty checks that every sample appears in
// exactly one validation fold for random label vectors.
func TestStratifiedKFoldPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		k := 2 + rng.Intn(4)
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(4)
		}
		folds, err := StratifiedKFold(y, k, seed)
		if err != nil {
			return false
		}
		seen := make([]int, n)
		for _, fold := range folds {
			for _, i := range fold.ValIdx {
				seen[i]++
			}
			if len(fold.TrainIdx)+len(fold.ValIdx) != n {
				return false
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// nearestCentroid is a tiny deterministic model for testing the harness.
func nearestCentroid(trainX *mat.Matrix, trainY []int, testX *mat.Matrix) ([]int, error) {
	classes := map[int][]float64{}
	counts := map[int]float64{}
	for i := 0; i < trainX.Rows; i++ {
		c := trainY[i]
		if classes[c] == nil {
			classes[c] = make([]float64, trainX.Cols)
		}
		for j, v := range trainX.Row(i) {
			classes[c][j] += v
		}
		counts[c]++
	}
	for c := range classes {
		for j := range classes[c] {
			classes[c][j] /= counts[c]
		}
	}
	out := make([]int, testX.Rows)
	for i := 0; i < testX.Rows; i++ {
		best, bestD := -1, math.Inf(1)
		for c, cent := range classes {
			var d float64
			for j, v := range testX.Row(i) {
				diff := v - cent[j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		out[i] = best
	}
	return out, nil
}

func separableData(n int, seed int64) (*mat.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		x.Set(i, 0, float64(c)*6+rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		y[i] = c
	}
	return x, y
}

func TestCrossValScore(t *testing.T) {
	x, y := separableData(60, 2)
	folds, err := StratifiedKFold(y, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean, scores, err := CrossValScore(nearestCentroid, x, y, folds)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("got %d scores", len(scores))
	}
	if mean < 0.95 {
		t.Errorf("mean CV accuracy %v on separable data", mean)
	}
}

func TestCrossValScorePropagatesErrors(t *testing.T) {
	failing := func(_ *mat.Matrix, _ []int, _ *mat.Matrix) ([]int, error) {
		return nil, errors.New("boom")
	}
	x, y := separableData(20, 3)
	folds, err := StratifiedKFold(y, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CrossValScore(failing, x, y, folds); err == nil {
		t.Error("fold errors must propagate")
	}
}

func TestGridSearchPicksInformedModel(t *testing.T) {
	x, y := separableData(80, 5)
	random := func(trainX *mat.Matrix, trainY []int, testX *mat.Matrix) ([]int, error) {
		rng := rand.New(rand.NewSource(9))
		out := make([]int, testX.Rows)
		for i := range out {
			out[i] = rng.Intn(2)
		}
		return out, nil
	}
	gs := &GridSearch{Folds: 4, Seed: 1}
	results, best, err := gs.Run([]Candidate{
		{Name: "random", Fit: random},
		{Name: "centroid", Fit: nearestCentroid},
	}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if best.Name != "centroid" {
		t.Errorf("grid search picked %q", best.Name)
	}
	if results[0].Name != "centroid" || results[0].MeanScore < results[1].MeanScore {
		t.Errorf("results not sorted: %+v", results)
	}
}

func TestGridSearchErrors(t *testing.T) {
	gs := &GridSearch{Folds: 3}
	if _, _, err := gs.Run(nil, mat.New(5, 1), []int{0, 1, 0, 1, 0}); err == nil {
		t.Error("no candidates should fail")
	}
	if _, _, err := gs.Run([]Candidate{{Name: "c", Fit: nearestCentroid}}, mat.New(2, 1), []int{0, 1}); err == nil {
		t.Error("k>n should fail")
	}
}
