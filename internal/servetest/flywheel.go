package servetest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/stream"
)

// Classes is the number of in-distribution classes the flywheel stack
// trains on.
const Classes = 4

// Class means with distinct squared deviations from the overall mean: the
// covariance embedding keeps only uncentered second moments of the
// standardised window, so equally-spaced means would collide in ± pairs
// (mean +z and -z embed identically). Unequal magnitudes keep all four
// classes separable.
var idMeans = [Classes]float64{2, 4, 8, 16}

// IDSamples generates one in-distribution job's raw telemetry.
func IDSamples(class, seed, n int) [][]float64 {
	return samples(int64(seed)*7919+3, idMeans[class], n)
}

// OODSamples generates an out-of-distribution job: a coherent workload
// family no training class covers (mean 28, well past every class mean).
func OODSamples(seed, n int) [][]float64 {
	return samples(int64(seed)*104729+7, 28, n)
}

// samples draws n samples of Sensors values from N(mean, 1).
func samples(seed int64, mean float64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, Sensors)
		for c := range s {
			s[c] = rng.NormFloat64() + mean
		}
		out[i] = s
	}
	return out
}

// Flywheel builds a realistic serving stack for the adapt flywheel: a
// scaler fitted on ID windows, a forest trained on the features live
// serving computes for them, a drift calibration that accepts ID traffic
// and rejects the OOD family, the base feature pair an in-process trainer
// widens with novel families, and the raw reference the calibration's
// histograms come from.
func Flywheel(t testing.TB) (*preprocess.StandardScaler, *forest.Classifier, *drift.Calibration, *core.FeaturePair, *mat.Matrix) {
	t.Helper()
	const perClass = 60
	const trainPer = 45
	jobs := Classes * perClass

	// Scaler over flattened ID windows, and the raw reference over the
	// same samples.
	flat := mat.New(jobs, Window*Sensors)
	raw := mat.New(jobs*Window, Sensors)
	for j := 0; j < jobs; j++ {
		for si, s := range IDSamples(j%Classes, j, Window) {
			copy(flat.Data[(j*Window+si)*Sensors:], s)
			copy(raw.Data[(j*Window+si)*Sensors:], s)
		}
	}
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(flat); err != nil {
		t.Fatal(err)
	}

	// Embed each job's window as a fleet tick does, through a fresh
	// embedder's FeaturesInto, and split it per class into train and test.
	dim := preprocess.CovarianceDim(Sensors)
	trainX := mat.New(Classes*trainPer, dim)
	trainY := make([]int, 0, trainX.Rows)
	testX := mat.New(Classes*(perClass-trainPer), dim)
	testY := make([]int, 0, testX.Rows)
	for j := 0; j < jobs; j++ {
		emb, err := stream.NewWindowedEmbedder(Window, Sensors, &scaler)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range IDSamples(j%Classes, j, Window) {
			if err := emb.Push(s); err != nil {
				t.Fatal(err)
			}
		}
		x, y := testX, &testY
		if j/Classes < trainPer {
			x, y = trainX, &trainY
		}
		row := x.Data[len(*y)*dim : (len(*y)+1)*dim]
		*y = append(*y, j%Classes)
		if err := emb.FeaturesInto(row); err != nil {
			t.Fatal(err)
		}
	}

	model := forest.New(forest.Config{NumTrees: 30, Bootstrap: true, Seed: 3})
	if err := model.Fit(trainX, trainY, Classes); err != nil {
		t.Fatal(err)
	}
	cal, err := drift.Fit(drift.FitInput{TrainFeatures: trainX, HeldOutFeatures: testX, RawSamples: raw}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := &core.FeaturePair{TrainX: trainX, TrainY: trainY, TestX: testX, TestY: testY, Scaler: &scaler}
	return &scaler, model, cal, fp, raw
}

// Phase drives one traffic phase: idJobs in-distribution jobs (class = job
// index mod Classes) then oodJobs OOD jobs, one window each, job IDs
// starting at base, fed sample by sample through ingest and then one tick.
// It returns the OOD job IDs. A fleet.Monitor's Ingest and Tick methods are
// the usual arguments.
func Phase[S any](t testing.TB, ingest func(job int, sample []float64) error, tick func() (S, error), base, idJobs, oodJobs int) []int {
	t.Helper()
	for j := 0; j < idJobs; j++ {
		for _, s := range IDSamples(j%Classes, base+j, Window) {
			if err := ingest(base+j, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ood []int
	for j := 0; j < oodJobs; j++ {
		id := base + idJobs + j
		ood = append(ood, id)
		for _, s := range OODSamples(id, Window) {
			if err := ingest(id, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tick(); err != nil {
		t.Fatal(err)
	}
	return ood
}

// RejectedRate is the share of jobs whose prediction, read through
// prediction (a fleet.Monitor's Prediction method), the open-set gate
// rejected.
func RejectedRate(t testing.TB, prediction func(job int) (*stream.Prediction, bool), jobs []int) float64 {
	t.Helper()
	rejected := 0
	for _, id := range jobs {
		pred, ok := prediction(id)
		if !ok {
			t.Fatalf("job %d has no prediction", id)
		}
		if pred.Unknown() {
			rejected++
		}
	}
	return float64(rejected) / float64(len(jobs))
}
