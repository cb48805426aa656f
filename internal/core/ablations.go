package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
)

// Ablations probe the design choices DESIGN.md calls out. They are not in
// the paper; they test the mechanisms this reproduction claims explain the
// paper's results.

// StartPhaseAblation compares RF-Cov accuracy on 60-start-1 with the
// simulator's class-agnostic startup phase enabled vs disabled. The paper's
// §IV-A hypothesis — the start dataset is hardest because early-job compute
// is generic — predicts a clear accuracy gain when startup is removed.
type StartPhaseAblation struct {
	WithStartup    float64
	WithoutStartup float64
}

// RunStartPhaseAblation executes the ablation under the given preset.
func RunStartPhaseAblation(p Preset) (*StartPhaseAblation, error) {
	res := &StartPhaseAblation{}
	for _, disable := range []bool{false, true} {
		sim, err := telemetry.NewSimulator(telemetry.Config{
			Seed: p.Seed, Scale: p.Scale, GapRate: 1, DisableStartup: disable,
		})
		if err != nil {
			return nil, err
		}
		spec, _ := dataset.SpecByName("60-start-1")
		ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
		if err != nil {
			return nil, err
		}
		fp, err := CovFeatures(ch)
		if err != nil {
			return nil, err
		}
		acc, err := rfAccuracy(fp, 100, p.Seed)
		if err != nil {
			return nil, err
		}
		if disable {
			res.WithoutStartup = acc
		} else {
			res.WithStartup = acc
		}
	}
	return res, nil
}

func rfAccuracy(fp *FeaturePair, trees int, seed int64) (float64, error) {
	f := forest.New(forest.Config{NumTrees: trees, Bootstrap: true, Seed: seed})
	if err := f.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)); err != nil {
		return 0, err
	}
	pred, err := f.Predict(fp.TestX)
	if err != nil {
		return 0, err
	}
	return metrics.Accuracy(fp.TestY, pred)
}

// EmbeddingAblation compares the three trial embeddings feeding the same RF
// on the same dataset: covariance (28-d), PCA (28-d) and a raw
// downsampled flatten — accuracy and wall-clock per embedding.
type EmbeddingAblation struct {
	Rows []EmbeddingRow
}

// EmbeddingRow is one embedding's outcome.
type EmbeddingRow struct {
	Name     string
	Dim      int
	Accuracy float64
	Elapsed  time.Duration
}

// RunEmbeddingAblation executes the comparison on 60-middle-1.
func RunEmbeddingAblation(sim *telemetry.Simulator, p Preset) (*EmbeddingAblation, error) {
	spec, _ := dataset.SpecByName("60-middle-1")
	ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		return nil, err
	}
	out := &EmbeddingAblation{}

	run := func(name string, build func() (*FeaturePair, error)) error {
		start := time.Now()
		fp, err := build()
		if err != nil {
			return fmt.Errorf("core: embedding %s: %w", name, err)
		}
		acc, err := rfAccuracy(fp, 100, p.Seed)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, EmbeddingRow{
			Name: name, Dim: fp.TrainX.Cols, Accuracy: acc, Elapsed: time.Since(start),
		})
		return nil
	}

	if err := run("covariance", func() (*FeaturePair, error) { return CovFeatures(ch) }); err != nil {
		return nil, err
	}
	if err := run("pca-28", func() (*FeaturePair, error) { return PCAFeatures(ch, 28, p.Seed) }); err != nil {
		return nil, err
	}
	if err := run("raw-flatten (stride 10)", func() (*FeaturePair, error) {
		trainDS := ch.Train.X.Downsample(10)
		testDS := ch.Test.X.Downsample(10)
		var scaler preprocess.StandardScaler
		trainZ, err := scaler.FitTransform(trainDS.Flatten())
		if err != nil {
			return nil, err
		}
		testZ, err := scaler.Transform(testDS.Flatten())
		if err != nil {
			return nil, err
		}
		return &FeaturePair{TrainX: trainZ, TrainY: ch.Train.Y, TestX: testZ, TestY: ch.Test.Y}, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// EigensolverAblation compares the exact Jacobi eigensolver against the
// randomized top-k solver for PCA on downsampled flattened trials:
// agreement of leading eigenvalues and wall-clock.
type EigensolverAblation struct {
	Dim           int
	K             int
	ExactElapsed  time.Duration
	RandomElapsed time.Duration
	MaxRelValDiff float64
	LeadingExact  []float64
	LeadingRandom []float64
}

// RunEigensolverAblation executes the comparison.
func RunEigensolverAblation(sim *telemetry.Simulator, p Preset) (*EigensolverAblation, error) {
	spec, _ := dataset.SpecByName("60-middle-1")
	ch, err := BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
	if err != nil {
		return nil, err
	}
	// Downsample so the exact solver's O(d³) Jacobi stays tractable.
	ds := ch.Train.X.Downsample(10) // 54×7 → 378 dims
	var scaler preprocess.StandardScaler
	z, err := scaler.FitTransform(ds.Flatten())
	if err != nil {
		return nil, err
	}
	const k = 8
	res := &EigensolverAblation{Dim: z.Cols, K: k}

	start := time.Now()
	centered := z.Clone()
	means := mat.ColumnMeans(centered)
	for i := 0; i < centered.Rows; i++ {
		row := centered.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	cov, err := mat.Covariance(centered, false)
	if err != nil {
		return nil, err
	}
	exactVals, _, err := mat.EigSym(cov)
	if err != nil {
		return nil, err
	}
	res.ExactElapsed = time.Since(start)
	res.LeadingExact = exactVals[:k]

	start = time.Now()
	randVals, _, err := mat.EigSymTopK(centered, k, 3, nil)
	if err != nil {
		return nil, err
	}
	res.RandomElapsed = time.Since(start)
	res.LeadingRandom = randVals

	for i := 0; i < k; i++ {
		rel := (exactVals[i] - randVals[i]) / (exactVals[i] + 1e-12)
		if rel < 0 {
			rel = -rel
		}
		if rel > res.MaxRelValDiff {
			res.MaxRelValDiff = rel
		}
	}
	return res, nil
}

// FormatAblations renders all ablation results.
func FormatAblations(sp *StartPhaseAblation, emb *EmbeddingAblation, eig *EigensolverAblation) string {
	s := ""
	if sp != nil {
		s += RenderTable("Ablation: class-agnostic startup phase (RF-Cov on 60-start-1)",
			[]string{"Startup phase", "Accuracy (%)"},
			[][]string{
				{"enabled (paper's setting)", pct(sp.WithStartup)},
				{"disabled", pct(sp.WithoutStartup)},
			}) + "\n"
	}
	if emb != nil {
		var rows [][]string
		for _, r := range emb.Rows {
			rows = append(rows, []string{r.Name, fmt.Sprintf("%d", r.Dim), pct(r.Accuracy), r.Elapsed.Round(time.Millisecond).String()})
		}
		s += RenderTable("Ablation: trial embedding (RF, 60-middle-1)",
			[]string{"Embedding", "Dim", "Accuracy (%)", "Wall clock"}, rows) + "\n"
	}
	if eig != nil {
		s += RenderTable("Ablation: PCA eigensolver (378-dim flattened trials, k=8)",
			[]string{"Solver", "Wall clock", "Max rel. eigenvalue diff"},
			[][]string{
				{"exact Jacobi", eig.ExactElapsed.Round(time.Millisecond).String(), "-"},
				{"randomized subspace", eig.RandomElapsed.Round(time.Millisecond).String(), fmt.Sprintf("%.2e", eig.MaxRelValDiff)},
			})
	}
	return s
}
