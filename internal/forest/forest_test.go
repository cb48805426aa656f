package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// gaussianBlobs builds a k-class problem with Gaussian clusters.
func gaussianBlobs(n, k int, spread float64, seed int64) (*mat.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		angle := 2 * math.Pi * float64(c) / float64(k)
		x.Set(i, 0, 3*math.Cos(angle)+rng.NormFloat64()*spread)
		x.Set(i, 1, 3*math.Sin(angle)+rng.NormFloat64()*spread)
		y[i] = c
	}
	return x, y
}

func TestForestSeparableBlobs(t *testing.T) {
	x, y := gaussianBlobs(300, 3, 0.5, 1)
	f := New(Config{NumTrees: 30, Seed: 1, Bootstrap: true})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	xt, yt := gaussianBlobs(150, 3, 0.5, 2)
	pred, err := f.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pred {
		if p == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / 150; acc < 0.95 {
		t.Errorf("test accuracy %v on separable blobs", acc)
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	// With label noise, the bagged ensemble should generalise at least as
	// well as one deep tree.
	rng := rand.New(rand.NewSource(3))
	x, y := gaussianBlobs(400, 4, 1.2, 3)
	for i := range y {
		if rng.Float64() < 0.1 {
			y[i] = rng.Intn(4)
		}
	}
	xt, yt := gaussianBlobs(300, 4, 1.2, 4)

	single := New(Config{NumTrees: 1, Seed: 5, Bootstrap: false})
	if err := single.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	ens := New(Config{NumTrees: 60, Seed: 5, Bootstrap: true})
	if err := ens.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	accOf := func(f *Classifier) float64 {
		pred, err := f.Predict(xt)
		if err != nil {
			t.Fatal(err)
		}
		c := 0
		for i, p := range pred {
			if p == yt[i] {
				c++
			}
		}
		return float64(c) / float64(len(yt))
	}
	a1, aN := accOf(single), accOf(ens)
	if aN < a1-0.02 {
		t.Errorf("ensemble accuracy %v below single tree %v", aN, a1)
	}
}

func TestPredictProbaRowsSumToOne(t *testing.T) {
	x, y := gaussianBlobs(120, 3, 0.8, 7)
	f := New(Config{NumTrees: 10, Seed: 2, Bootstrap: true})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	probs, err := f.PredictProba(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < probs.Rows; i++ {
		sum := mat.SumSlice(probs.Row(i))
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d probs sum to %v", i, sum)
		}
	}
}

func TestForestDeterminism(t *testing.T) {
	x, y := gaussianBlobs(200, 3, 1.0, 11)
	cfg := Config{NumTrees: 20, Seed: 42, Bootstrap: true}
	f1, f2 := New(cfg), New(cfg)
	if err := f1.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	p1, _ := f1.PredictProba(x)
	p2, _ := f2.PredictProba(x)
	if !mat.Equal(p1, p2, 0) {
		t.Error("same seed produced different forests despite concurrency")
	}
}

func TestForestErrors(t *testing.T) {
	f := New(DefaultConfig())
	if err := f.Fit(mat.New(2, 2), []int{0}, 2); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := f.Fit(mat.New(0, 2), nil, 2); err == nil {
		t.Error("empty training set should fail")
	}
	if _, err := f.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
}

func TestForestFeatureImportances(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 300
	x := mat.New(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if x.At(i, 2) > 0 {
			y[i] = 1
		}
	}
	f := New(Config{NumTrees: 30, Seed: 17, Bootstrap: true})
	if err := f.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportances()
	for j := 0; j < 4; j++ {
		if j != 2 && imp[j] > imp[2] {
			t.Errorf("noise feature %d importance %v exceeds signal %v", j, imp[j], imp[2])
		}
	}
}

func TestNumTreesConfigDefaults(t *testing.T) {
	f := New(Config{})
	x, y := gaussianBlobs(60, 2, 0.5, 19)
	if err := f.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 100 {
		t.Errorf("default ensemble size %d, want 100", f.NumTrees())
	}
}

func TestPredictProbaBatchUnfitted(t *testing.T) {
	if _, err := New(Config{}).PredictProba(mat.New(1, 2)); err == nil {
		t.Error("unfitted predict should fail")
	}
	if _, err := New(Config{}).PredictProbaBatch(mat.New(1, 2)); err == nil {
		t.Error("unfitted batch predict should fail")
	}
}

// TestPredictProbaBatchIntoOverwrites pins the caller-owned output path a
// fleet tick scores into: whatever the buffer held before — NaN garbage or a
// previous, larger batch — each call's rows are bit-identical to
// PredictProba's; a misshapen output or an unfitted forest is refused.
func TestPredictProbaBatchIntoOverwrites(t *testing.T) {
	x, y := gaussianBlobs(300, 4, 0.9, 12)
	f := New(Config{NumTrees: 20, Seed: 4, Bootstrap: true})
	if err := f.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, x.Rows*f.NumClasses())
	for i := range buf {
		buf[i] = math.NaN()
	}
	for _, rows := range []int{x.Rows, 97, 1, 0} {
		ev := &mat.Matrix{Rows: rows, Cols: x.Cols, Data: x.Data[:rows*x.Cols]}
		out := &mat.Matrix{Rows: rows, Cols: f.NumClasses(), Data: buf[:rows*f.NumClasses()]}
		if err := f.PredictProbaBatchInto(ev, out); err != nil {
			t.Fatal(err)
		}
		want, err := f.PredictProba(ev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rows=%d: element %d: into %v vs PredictProba %v", rows, i, out.Data[i], want.Data[i])
			}
		}
	}
	for _, bad := range []*mat.Matrix{
		mat.New(x.Rows, f.NumClasses()+1),
		mat.New(x.Rows-1, f.NumClasses()),
		{Rows: x.Rows, Cols: f.NumClasses(), Data: buf[:len(buf)-1]},
	} {
		if err := f.PredictProbaBatchInto(x, bad); err == nil {
			t.Fatalf("accepted a %dx%d output of %d values", bad.Rows, bad.Cols, len(bad.Data))
		}
	}
	if err := New(Config{}).PredictProbaBatchInto(mat.New(1, 2), mat.New(1, 0)); err == nil {
		t.Error("unfitted batch predict into should fail")
	}
}

// TestPredictProbaBatchRefusesShortInput pins that every predict entry
// point checks x.Data against x.Rows×x.Cols before any block worker slices
// it: a Data holding fewer rows than x.Rows, with spare capacity behind it
// or without, or more values than the shape names, is an error, never rows
// scored from stale memory or a panic.
func TestPredictProbaBatchRefusesShortInput(t *testing.T) {
	x, y := gaussianBlobs(100, 4, 0.9, 13)
	f := New(Config{NumTrees: 5, Seed: 2, Bootstrap: true})
	if err := f.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	half := x.Rows / 2 * x.Cols
	for name, data := range map[string][]float64{
		"spare capacity": x.Data[:half],
		"exact capacity": x.Data[:half:half],
		"too long":       append(append([]float64(nil), x.Data...), 0),
	} {
		bad := &mat.Matrix{Rows: x.Rows, Cols: x.Cols, Data: data}
		for method, predict := range map[string]func(*mat.Matrix) error{
			"PredictProba":      func(x *mat.Matrix) error { _, err := f.PredictProba(x); return err },
			"PredictProbaBatch": func(x *mat.Matrix) error { _, err := f.PredictProbaBatch(x); return err },
			"Predict":           func(x *mat.Matrix) error { _, err := f.Predict(x); return err },
		} {
			if err := predict(bad); err == nil {
				t.Errorf("%s, %s: accepted a %dx%d input of %d values", method, name, bad.Rows, bad.Cols, len(data))
			}
		}
	}
}
