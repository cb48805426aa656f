// Package servetest holds the fixtures the serving suites (fleet, server,
// cluster, adapt) replay, one copy of each recipe: a 6×3 scaler and forest,
// a wide fixture of any shape, a second forest that disagrees with the
// first, deterministic job streams and the interleaved stream with refused
// lines both equivalence tables replay, the single-job stream.Monitor
// baseline every bit-identity test compares against, a drift calibration,
// the adapt flywheel's serving stack (flywheel.go), and the served-
// equivalence harness that holds HTTP serving to an in-process fleet
// (served.go).
//
// It imports none of the serving packages, so the in-package tests of all
// four can import it: the harness speaks HTTP, and takes the in-process
// reference as closures. Every recipe is seeded: a fixture's scaler, forest
// and calibration encode to the same bytes on every run.
package servetest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/stream"
)

// Window and Sensors are the fixture's window shape.
const (
	Window  = 6
	Sensors = 3
)

// Fixture builds a scaler fitted for the Window×Sensors shape and a small
// random forest over the matching covariance-embedding dimension.
func Fixture(t testing.TB) (*preprocess.StandardScaler, *forest.Classifier) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	scaler := fitScaler(t, rng, 40, Window*Sensors, 3, 5)
	return scaler, fitForest(t, rng, 200, preprocess.CovarianceDim(Sensors), 4,
		forest.Config{NumTrees: 15, Bootstrap: true, Seed: 2})
}

// Wide builds a scaler and a discriminating forest for an arbitrary window
// shape. The statistics are synthetic: the suites that use it check that
// two serving paths agree, not accuracy.
func Wide(t testing.TB, window, sensors int) (*preprocess.StandardScaler, *forest.Classifier) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	scaler := fitScaler(t, rng, 50, window*sensors, 20, 40)
	return scaler, fitForest(t, rng, 300, preprocess.CovarianceDim(sensors), 8,
		forest.Config{NumTrees: 20, Bootstrap: true, Seed: 4})
}

// AltForest trains a second forest over Fixture's feature space whose
// predictions differ from Fixture's on the same window with overwhelming
// probability: the model a swap test swaps in.
func AltForest(t testing.TB) *forest.Classifier {
	t.Helper()
	return fitForest(t, rand.New(rand.NewSource(99)), 200, preprocess.CovarianceDim(Sensors), 4,
		forest.Config{NumTrees: 9, MaxDepth: 5, Bootstrap: true, Seed: 77})
}

// fitScaler fits a scaler on rows×cols draws of N(mean, std²).
func fitScaler(t testing.TB, rng *rand.Rand, rows, cols int, std, mean float64) *preprocess.StandardScaler {
	t.Helper()
	train := mat.New(rows, cols)
	for i := range train.Data {
		train.Data[i] = rng.NormFloat64()*std + mean
	}
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(train); err != nil {
		t.Fatal(err)
	}
	return &scaler
}

// fitForest fits cfg on rows standard-normal feature rows of width dim
// labelled uniformly over classes.
func fitForest(t testing.TB, rng *rand.Rand, rows, dim, classes int, cfg forest.Config) *forest.Classifier {
	t.Helper()
	x := mat.New(rows, dim)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	f := forest.New(cfg)
	if err := f.Fit(x, y, classes); err != nil {
		t.Fatal(err)
	}
	return f
}

// JobSamples derives a deterministic telemetry stream for one job: n
// samples of Sensors values drawn from N(4, 2²).
func JobSamples(jobID, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(jobID)*7919 + 3))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, Sensors)
		for c := range s {
			s[c] = rng.NormFloat64()*2 + 4
		}
		out[i] = s
	}
	return out
}

// JobStreams returns JobSamples(j, perJob) for each of jobs 0 to jobs-1.
func JobStreams(jobs, perJob int) [][][]float64 {
	streams := make([][][]float64, jobs)
	for j := range streams {
		streams[j] = JobSamples(j, perJob)
	}
	return streams
}

// Line is one ingest line of a replayed stream: a job and one sample.
type Line struct {
	Job    int
	Values []float64
}

// Interleave merges streams, job j's samples in streams[j], in a random
// order that keeps each job's own, and mixes in about one refused line in
// twelve: too few values, too many, a NaN, or ±1e13. bad holds the refused
// lines' indices. It is the stream both equivalence tables replay: the
// fleet's twin table and the served table (Serve).
func Interleave(rng *rand.Rand, streams [][][]float64) (lines []Line, bad map[int]bool) {
	left := 0
	for _, s := range streams {
		left += len(s)
	}
	streams = append([][][]float64(nil), streams...)
	bad = map[int]bool{}
	for left > 0 {
		j := rng.Intn(len(streams))
		if len(streams[j]) == 0 {
			continue
		}
		if rng.Intn(12) == 0 {
			v := append([]float64(nil), streams[j][0]...)
			switch rng.Intn(5) {
			case 0:
				v = v[:len(v)-1]
			case 1:
				v = append(v, 1)
			case 2:
				v[rng.Intn(len(v))] = math.NaN()
			case 3:
				v[rng.Intn(len(v))] = 1e13
			default:
				v[rng.Intn(len(v))] = -1e13
			}
			bad[len(lines)] = true
			lines = append(lines, Line{Job: j, Values: v})
		}
		lines = append(lines, Line{Job: j, Values: streams[j][0]})
		streams[j] = streams[j][1:]
		left--
	}
	return lines, bad
}

// Baseline replays samples through a fresh single-job stream.Monitor of
// the Window×Sensors shape: the prediction a serving path must equal.
func Baseline(t testing.TB, scaler *preprocess.StandardScaler, model stream.Classifier, samples [][]float64) *stream.Prediction {
	t.Helper()
	emb, err := stream.NewWindowedEmbedder(Window, Sensors, scaler)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := emb.Push(s); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := (&stream.Monitor{Embedder: emb, Model: model}).Classify()
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// SamePrediction reports whether a and b carry the same Class, Probability
// and Probs, bit for bit; two nils are the same. The open-set verdict is
// not compared.
func SamePrediction(a, b *stream.Prediction) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Class != b.Class || math.Float64bits(a.Probability) != math.Float64bits(b.Probability) ||
		len(a.Probs) != len(b.Probs) {
		return false
	}
	for c := range a.Probs {
		if math.Float64bits(a.Probs[c]) != math.Float64bits(b.Probs[c]) {
			return false
		}
	}
	return true
}

// AssertSamePrediction fails t unless got exists and SamePrediction(got,
// want) holds.
func AssertSamePrediction(t testing.TB, jobID int, got, want *stream.Prediction) {
	t.Helper()
	if got == nil {
		t.Fatalf("job %d: no served prediction", jobID)
	}
	if !SamePrediction(got, want) {
		t.Fatalf("job %d: served (%d, %v, %v) vs baseline (%d, %v, %v): not bit-identical",
			jobID, got.Class, got.Probability, got.Probs, want.Class, want.Probability, want.Probs)
	}
}

// Calibration fits a drift calibration over Fixture's feature space:
// trainRows reference rows and 200 held-out rows drawn from N(0, 1), and a
// raw reference over the distribution JobSamples draws from. Suites pass
// their own seed, so each keeps the calibration it was written against.
func Calibration(t testing.TB, seed int64, trainRows int) *drift.Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := preprocess.CovarianceDim(Sensors)
	trainFeats := mat.New(trainRows, dim)
	for i := range trainFeats.Data {
		trainFeats.Data[i] = rng.NormFloat64()
	}
	heldOut := mat.New(200, dim)
	for i := range heldOut.Data {
		heldOut.Data[i] = rng.NormFloat64()
	}
	ref := mat.New(4000, Sensors)
	for i := range ref.Data {
		ref.Data[i] = rng.NormFloat64()*2 + 4
	}
	cal, err := drift.Fit(drift.FitInput{TrainFeatures: trainFeats, HeldOutFeatures: heldOut, RawSamples: ref}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// DriftBinned counts the samples among a job's first n since it registered
// that a fleet's drift histograms bin: one in eight, those for which the
// splitmix64 generator, seeded with the job's routing hash, returns a value
// below 2⁶¹. It is written from the generator's definition, one state step
// per sample, so it checks the fleet's closed-form pick rather than
// repeating it.
func DriftBinned(job, n int) uint64 {
	state := splitmix64Mix(uint64(job)) // fleet.JobHash
	var picked uint64
	for range n {
		state += 0x9e3779b97f4a7c15
		if splitmix64Mix(state) < 1<<61 {
			picked++
		}
	}
	return picked
}

// splitmix64Mix is the splitmix64 output function.
func splitmix64Mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
