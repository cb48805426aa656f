// Benchmarks regenerating each paper table (I-IX) plus the ablations
// DESIGN.md calls out. Accuracy-bearing benches attach the measured accuracy
// as a custom "acc%" metric so `go test -bench` output doubles as a compact
// experiment report.
//
// Benchmarks run at reduced scale (they measure the machinery, not the
// paper's absolute numbers); `wccbench -preset scaled` is the full
// experiment driver.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/stream"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/xgb"
)

// Shared fixtures, built once.
var (
	fixOnce sync.Once
	fixSim  *telemetry.Simulator
	fixMid  *dataset.Challenge // 60-middle-1, capped
	fixCov  *core.FeaturePair
	fixPCA  *core.FeaturePair
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		p := core.PresetSmoke()
		p.MaxTrain = 260
		p.MaxTest = 130
		var err error
		fixSim, err = core.NewSimulator(p)
		if err != nil {
			panic(err)
		}
		spec, _ := dataset.SpecByName("60-middle-1")
		fixMid, err = core.BuildDataset(fixSim, spec, p.Seed, p.MaxTrain, p.MaxTest)
		if err != nil {
			panic(err)
		}
		fixCov, err = core.CovFeatures(fixMid)
		if err != nil {
			panic(err)
		}
		fixPCA, err = core.PCAFeatures(fixMid, 28, 1)
		if err != nil {
			panic(err)
		}
	})
}

// BenchmarkTableI_Generate measures labelled-dataset generation (Table I's
// underlying population) at 5% scale.
func BenchmarkTableI_Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := telemetry.NewSimulator(telemetry.Config{Seed: int64(i + 1), Scale: 0.05, GapRate: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(core.RunTable1(sim)) != int(telemetry.NumFamilies) {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkTableII_III_Schema measures the sensor-schema rendering.
func BenchmarkTableII_III_Schema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.FormatTables2And3()) == 0 {
			b.Fatal("empty schema")
		}
	}
}

// BenchmarkTableIV_BuildDataset measures end-to-end construction of one
// challenge dataset: window extraction, gap filtering, stratified split.
func BenchmarkTableIV_BuildDataset(b *testing.B) {
	fixtures(b)
	spec, _ := dataset.SpecByName("60-random-1")
	opts := dataset.DefaultBuildOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := dataset.Build(fixSim, spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ch.Train.Len() == 0 {
			b.Fatal("empty build")
		}
	}
}

// table5Bench runs one fit+score cycle for a Table V cell.
func table5Bench(b *testing.B, fp *core.FeaturePair, fit func() ([]int, error)) {
	b.Helper()
	var lastAcc float64
	for i := 0; i < b.N; i++ {
		pred, err := fit()
		if err != nil {
			b.Fatal(err)
		}
		lastAcc, err = metrics.Accuracy(fp.TestY, pred)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastAcc*100, "acc%")
}

// BenchmarkTableV_RFCov measures the paper's best baseline.
func BenchmarkTableV_RFCov(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	table5Bench(b, fixCov, func() ([]int, error) {
		f := forest.New(forest.Config{NumTrees: 50, Bootstrap: true, Seed: 1})
		if err := f.Fit(fixCov.TrainX, fixCov.TrainY, int(telemetry.NumClasses)); err != nil {
			return nil, err
		}
		return f.Predict(fixCov.TestX)
	})
}

// BenchmarkTableV_RFPCA measures RF on PCA features.
func BenchmarkTableV_RFPCA(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	table5Bench(b, fixPCA, func() ([]int, error) {
		f := forest.New(forest.Config{NumTrees: 50, Bootstrap: true, Seed: 1})
		if err := f.Fit(fixPCA.TrainX, fixPCA.TrainY, int(telemetry.NumClasses)); err != nil {
			return nil, err
		}
		return f.Predict(fixPCA.TestX)
	})
}

// BenchmarkTableV_SVMCov measures the RBF SVC on covariance features.
func BenchmarkTableV_SVMCov(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	table5Bench(b, fixCov, func() ([]int, error) {
		m := svm.New(svm.Config{C: 10, Seed: 1})
		if err := m.Fit(fixCov.TrainX, fixCov.TrainY); err != nil {
			return nil, err
		}
		return m.Predict(fixCov.TestX)
	})
}

// BenchmarkTableV_SVMPCA measures the RBF SVC on PCA features.
func BenchmarkTableV_SVMPCA(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	table5Bench(b, fixPCA, func() ([]int, error) {
		m := svm.New(svm.Config{C: 10, Seed: 1})
		if err := m.Fit(fixPCA.TrainX, fixPCA.TrainY); err != nil {
			return nil, err
		}
		return m.Predict(fixPCA.TestX)
	})
}

// BenchmarkXGBoost_Random1 measures the §IV-B configuration (40 rounds,
// depth 6) on covariance features.
func BenchmarkXGBoost_Random1(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	table5Bench(b, fixCov, func() ([]int, error) {
		m := xgb.New(xgb.Config{
			NumRounds: 40, LearningRate: 0.3, MaxDepth: 6,
			Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: 1,
		})
		if err := m.Fit(fixCov.TrainX, fixCov.TrainY, int(telemetry.NumClasses), nil, nil); err != nil {
			return nil, err
		}
		return m.Predict(fixCov.TestX)
	})
}

// rnnFixture prepares a small standardised, downsampled sequence set.
func rnnFixture(b *testing.B, stride int) (*dataset.Tensor3, []int) {
	b.Helper()
	fixtures(b)
	var scaler preprocess.StandardScaler
	z, err := scaler.FitTransform(fixMid.Train.X.Flatten())
	if err != nil {
		b.Fatal(err)
	}
	t3 := dataset.NewTensor3(z.Rows, fixMid.Train.X.T, fixMid.Train.X.C)
	for i, v := range z.Data {
		t3.Data[i] = float32(v)
	}
	return t3.Downsample(stride), fixMid.Train.Y
}

// BenchmarkTableVI_LSTM measures one bi-LSTM training epoch.
func BenchmarkTableVI_LSTM(b *testing.B) {
	x, y := rnnFixture(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := nn.NewBiLSTMClassifier(x.C, 8, x.T, int(telemetry.NumClasses), 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := nn.DefaultTrainConfig()
		cfg.Epochs = 1
		cfg.Patience = 0
		if _, err := nn.Train(model, x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVI_CNNLSTM measures one CNN-LSTM training epoch (the
// paper's ~8× faster variant).
func BenchmarkTableVI_CNNLSTM(b *testing.B) {
	x, y := rnnFixture(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := nn.NewCNNLSTMClassifier(x.C, x.T, int(telemetry.NumClasses), nn.CNNLSTMOptions{Hidden: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cfg := nn.DefaultTrainConfig()
		cfg.Epochs = 1
		cfg.Patience = 0
		if _, err := nn.Train(model, x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables789_Inventory measures the class-inventory tally.
func BenchmarkTables789_Inventory(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(core.RunTables789(fixSim)) != int(telemetry.NumClasses) {
			b.Fatal("bad inventory")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationEmbeddingCov measures the covariance embedding alone.
func BenchmarkAblationEmbeddingCov(b *testing.B) {
	fixtures(b)
	var scaler preprocess.StandardScaler
	z, err := scaler.FitTransform(fixMid.Train.X.Flatten())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocess.CovarianceEmbed(z, fixMid.Train.X.T, fixMid.Train.X.C); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEmbeddingPCA measures PCA fit+project at dim 28.
func BenchmarkAblationEmbeddingPCA(b *testing.B) {
	fixtures(b)
	var scaler preprocess.StandardScaler
	z, err := scaler.FitTransform(fixMid.Train.X.Flatten())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pca, err := preprocess.FitPCA(z, 28, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pca.Transform(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEigensolverJacobi measures exact Jacobi on a 378-dim
// covariance (downsampled flatten).
func BenchmarkAblationEigensolverJacobi(b *testing.B) {
	fixtures(b)
	ds := fixMid.Train.X.Downsample(10)
	var scaler preprocess.StandardScaler
	z, err := scaler.FitTransform(ds.Flatten())
	if err != nil {
		b.Fatal(err)
	}
	cov, err := mat.Covariance(z, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mat.EigSym(cov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEigensolverRandomized measures the randomized top-k
// solver on the same data.
func BenchmarkAblationEigensolverRandomized(b *testing.B) {
	fixtures(b)
	ds := fixMid.Train.X.Downsample(10)
	var scaler preprocess.StandardScaler
	z, err := scaler.FitTransform(ds.Flatten())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mat.EigSymTopK(z, 8, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStartPhase reports RF-Cov accuracy on the start dataset
// with the generic startup phase enabled vs disabled (the §IV-A mechanism);
// the "acc%" delta between sub-benchmarks is the measured effect.
func BenchmarkAblationStartPhase(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"startup", false}, {"nostartup", true}} {
		b.Run(variant.name, func(b *testing.B) {
			sim, err := telemetry.NewSimulator(telemetry.Config{
				Seed: 1, Scale: 0.05, GapRate: 1, DisableStartup: variant.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			p := core.PresetSmoke()
			p.MaxTrain = 260
			p.MaxTest = 130
			spec, _ := dataset.SpecByName("60-start-1")
			ch, err := core.BuildDataset(sim, spec, p.Seed, p.MaxTrain, p.MaxTest)
			if err != nil {
				b.Fatal(err)
			}
			fp, err := core.CovFeatures(ch)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			table5Bench(b, fp, func() ([]int, error) {
				f := forest.New(forest.Config{NumTrees: 50, Bootstrap: true, Seed: 1})
				if err := f.Fit(fp.TrainX, fp.TrainY, int(telemetry.NumClasses)); err != nil {
					return nil, err
				}
				return f.Predict(fp.TestX)
			})
		})
	}
}

// BenchmarkExtensionFusedFeatures measures the CPU+GPU fused covariance
// pipeline (join, rate-differencing, upsample, embed).
func BenchmarkExtensionFusedFeatures(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp, err := core.FusedCovFeatures(fixSim, fixMid)
		if err != nil {
			b.Fatal(err)
		}
		if fp.TrainX.Cols != 120 {
			b.Fatal("bad fused dims")
		}
	}
}

// BenchmarkExtensionStreamPush measures the incremental sliding-window
// embedder against re-embedding from scratch (the live-monitor hot path).
func BenchmarkExtensionStreamPush(b *testing.B) {
	fixtures(b)
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(fixMid.Train.X.Flatten()); err != nil {
		b.Fatal(err)
	}
	emb, err := stream.NewWindowedEmbedder(fixMid.Train.X.T, fixMid.Train.X.C, &scaler)
	if err != nil {
		b.Fatal(err)
	}
	sample := []float64{85, 60, 24000, 8500, 65, 55, 240}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := emb.Push(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDownsample measures one LSTM epoch at three sequence
// strides (the RNN preset's compute/length trade-off).
func BenchmarkAblationDownsample(b *testing.B) {
	for _, stride := range []int{30, 20, 10} {
		b.Run(map[int]string{30: "stride30", 20: "stride20", 10: "stride10"}[stride], func(b *testing.B) {
			x, y := rnnFixture(b, stride)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model, err := nn.NewBiLSTMClassifier(x.C, 8, x.T, int(telemetry.NumClasses), 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := nn.DefaultTrainConfig()
				cfg.Epochs = 1
				cfg.Patience = 0
				if _, err := nn.Train(model, x, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Serving-path benches (DESIGN.md §6) ---

// servingMatrix cycles the covariance test rows into a fixed-height batch,
// the shape one fleet tick hands the model.
func servingMatrix(b *testing.B, rows int) *mat.Matrix {
	b.Helper()
	fixtures(b)
	out := mat.New(rows, fixCov.TestX.Cols)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), fixCov.TestX.Row(i%fixCov.TestX.Rows))
	}
	return out
}

// BenchmarkServingForest compares 256 single-row PredictProba calls (the
// pre-fleet serving pattern: one call per monitored job) against one
// batched call on the same 256-row matrix. The "rows/s" metric is the
// serving throughput either path sustains.
func BenchmarkServingForest(b *testing.B) {
	batch := servingMatrix(b, 256)
	f := forest.New(forest.Config{NumTrees: 50, Bootstrap: true, Seed: 1})
	if err := f.Fit(fixCov.TrainX, fixCov.TrainY, int(telemetry.NumClasses)); err != nil {
		b.Fatal(err)
	}
	b.Run("single256", func(b *testing.B) {
		row := mat.New(1, batch.Cols)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch.Rows; r++ {
				copy(row.Data, batch.Row(r))
				if _, err := f.PredictProba(row); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("batched256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.PredictProbaBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkServingXGB is the same single-vs-batched comparison for the
// boosted ensemble.
func BenchmarkServingXGB(b *testing.B) {
	batch := servingMatrix(b, 256)
	m := xgb.New(xgb.Config{NumRounds: 40, LearningRate: 0.3, MaxDepth: 6,
		Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: 1})
	if err := m.Fit(fixCov.TrainX, fixCov.TrainY, int(telemetry.NumClasses), nil, nil); err != nil {
		b.Fatal(err)
	}
	b.Run("single256", func(b *testing.B) {
		row := mat.New(1, batch.Cols)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch.Rows; r++ {
				copy(row.Data, batch.Row(r))
				if _, err := m.PredictProba(row); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("batched256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.PredictProbaBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
