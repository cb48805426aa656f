// Command wcctrain trains a single baseline with explicit hyper-parameters
// and prints accuracy plus a per-class report — the interactive counterpart
// to wccbench's full table runs.
//
// Usage:
//
//	wcctrain -model rf -features cov -dataset 60-middle-1 -trees 100
//	wcctrain -model svm -features pca -pca-dim 64 -C 10
//	wcctrain -model xgb -features cov -rounds 40 -gamma 0.5
//	wcctrain -model lstm -hidden 32 -epochs 10 -stride 10
//
// With -o the fitted estimator is persisted as a versioned .wcc artifact
// bundling the model, its preprocessing statistics (scaler, and PCA when
// -features pca), and training provenance; wccserve -model serves it and
// wccinfo inspects it:
//
//	wcctrain -model rf -features cov -trees 100 -o rf-cov.wcc
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/xgb"
)

func main() {
	var (
		model      = flag.String("model", "rf", "rf, svm, linear-svm, xgb, lstm, lstm2, cnnlstm")
		features   = flag.String("features", "cov", "cov or pca (classical models only)")
		dsName     = flag.String("dataset", "60-middle-1", "challenge dataset name")
		scale      = flag.Float64("scale", 0.15, "generation scale")
		seed       = flag.Int64("seed", 1, "seed")
		maxTrain   = flag.Int("max-train", 800, "training trials cap (0 = all)")
		maxTest    = flag.Int("max-test", 400, "test trials cap (0 = all)")
		report     = flag.Bool("report", false, "print the per-class report")
		out        = flag.String("o", "", "write the fitted model as a .wcc artifact to this path")
		driftOn    = flag.Bool("drift", true, "with -o and cov features: calibrate and persist the open-set drift section (unknown-workload rejection threshold + input reference)")
		driftQ     = flag.Float64("drift-quantile", drift.DefaultQuantile, "calibration quantile of the probability rejection rules (confidence, margin, energy) over held-out in-distribution scores")
		driftFeatQ = flag.Float64("drift-feat-quantile", drift.DefaultFeatQuantile, "calibration quantile of the feature-space distance gate — the rule that carries most rejection recall; raise it to trade recall for fewer in-distribution false flags")

		pcaDim = flag.Int("pca-dim", 64, "PCA dimensions")
		cVal   = flag.Float64("C", 1, "SVM regularisation")
		trees  = flag.Int("trees", 100, "forest size")
		rounds = flag.Int("rounds", 40, "boosting rounds")
		gamma  = flag.Float64("gamma", 0, "XGBoost gamma")
		lambda = flag.Float64("lambda", 1, "XGBoost lambda")
		alpha  = flag.Float64("alpha", 0, "XGBoost alpha")

		hidden = flag.Int("hidden", 32, "LSTM hidden size")
		epochs = flag.Int("epochs", 10, "training epochs")
		stride = flag.Int("stride", 10, "sequence downsampling stride")

		families = flag.String("families", "", "offline continual learning: JSON family bundle from GET /v1/adapt/families; widens -base with one class per family and writes the candidate to -o")
		baseArt  = flag.String("base", "", "with -families: the serving .wcc artifact the candidate extends (source of provenance, trial caps, forest size and scaler)")
	)
	flag.Parse()

	if *families != "" {
		if err := runFamilies(*families, *baseArt, *out, *driftQ, *driftFeatQ); err != nil {
			fmt.Fprintln(os.Stderr, "wcctrain:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(opts{
		model: *model, features: *features, dsName: *dsName, scale: *scale,
		seed: *seed, maxTrain: *maxTrain, maxTest: *maxTest, report: *report, out: *out,
		driftOn: *driftOn, driftQ: *driftQ, driftFeatQ: *driftFeatQ,
		pcaDim: *pcaDim, c: *cVal, trees: *trees, rounds: *rounds,
		gamma: *gamma, lambda: *lambda, alpha: *alpha,
		hidden: *hidden, epochs: *epochs, stride: *stride,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "wcctrain:", err)
		os.Exit(1)
	}
}

// runFamilies is the offline half of the continual-learning flywheel: it
// rebuilds exactly the candidate the in-process flywheel would, from a
// family bundle exported on GET /v1/adapt/families — same provenance
// regeneration (dataset, caps and forest size all come from -base, not from
// this command's flags), same serving scaler reused verbatim, same
// adapt.BuildCandidateArtifact. The result drops onto the watched model
// path (or cluster distribution) like any other artifact.
func runFamilies(famPath, basePath, out string, driftQ, driftFeatQ float64) error {
	if basePath == "" {
		return fmt.Errorf("-families needs -base: the serving artifact the candidate extends")
	}
	if out == "" {
		return fmt.Errorf("-families needs -o: where to write the candidate artifact")
	}
	f, err := os.Open(famPath)
	if err != nil {
		return err
	}
	fams, err := adapt.DecodeFamilies(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(fams) == 0 {
		return fmt.Errorf("family bundle %s holds no families", famPath)
	}
	base, err := artifact.Load(basePath)
	if err != nil {
		return err
	}
	fmt.Printf("widening %d-class %s base with %d famil(ies) from %s\n",
		len(base.Meta.ClassNames), base.Meta.Kind, len(fams), famPath)
	trainer := &adapt.ProvenanceTrainer{
		Meta:         base.Meta,
		Scaler:       base.Scaler,
		Base:         base.Model,
		Quantile:     driftQ,
		FeatQuantile: driftFeatQ,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	cand, err := trainer.Train(fams)
	if err != nil {
		return err
	}
	if err := artifact.Save(out, cand); err != nil {
		return err
	}
	fmt.Printf("saved %d-class candidate (%d novel, base accuracy %.2f%%) to %s\n",
		len(cand.Meta.ClassNames), cand.Meta.NovelClasses, cand.Meta.Accuracy*100, out)
	return nil
}

type opts struct {
	model, features, dsName string
	scale                   float64
	seed                    int64
	maxTrain, maxTest       int
	report                  bool
	out                     string
	driftOn                 bool
	driftQ, driftFeatQ      float64
	pcaDim, trees, rounds   int
	c, gamma, lambda, alpha float64
	hidden, epochs, stride  int
}

func run(o opts) error {
	spec, ok := dataset.SpecByName(o.dsName)
	if !ok {
		return fmt.Errorf("unknown dataset %q", o.dsName)
	}
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: o.seed, Scale: o.scale, GapRate: 1})
	if err != nil {
		return err
	}
	ch, err := core.BuildDataset(sim, spec, o.seed, o.maxTrain, o.maxTest)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d train / %d test trials\n", o.dsName, ch.Train.Len(), ch.Test.Len())
	numClasses := int(telemetry.NumClasses)

	var pred []int
	var testY []int

	// Artifact ingredients, filled in by the model branches below.
	var trained any
	var scaler *preprocess.StandardScaler
	var pca *preprocess.PCA
	var covFP *core.FeaturePair // cov features, kept for drift calibration
	featuresKind := o.features
	window, sensors := ch.Train.X.T, ch.Train.X.C

	switch o.model {
	case "rf", "svm", "linear-svm", "xgb":
		var fp *core.FeaturePair
		switch o.features {
		case "cov":
			fp, err = core.CovFeatures(ch)
			covFP = fp
		case "pca":
			fp, err = core.PCAFeatures(ch, o.pcaDim, o.seed)
		default:
			return fmt.Errorf("unknown features %q", o.features)
		}
		if err != nil {
			return err
		}
		testY = fp.TestY
		scaler = fp.Scaler
		pca = fp.PCA
		switch o.model {
		case "rf":
			m := forest.New(forest.Config{NumTrees: o.trees, Bootstrap: true, Seed: o.seed})
			if err := m.Fit(fp.TrainX, fp.TrainY, numClasses); err != nil {
				return err
			}
			if pred, err = m.Predict(fp.TestX); err != nil {
				return err
			}
			trained = m
		case "svm":
			m := svm.New(svm.Config{C: o.c, Seed: o.seed})
			if err := m.Fit(fp.TrainX, fp.TrainY); err != nil {
				return err
			}
			if pred, err = m.Predict(fp.TestX); err != nil {
				return err
			}
			trained = m
		case "linear-svm":
			m := svm.NewLinear(svm.LinearConfig{C: o.c, Epochs: 100, Tol: 1e-4, Seed: o.seed})
			if err := m.Fit(fp.TrainX, fp.TrainY, numClasses); err != nil {
				return err
			}
			if pred, err = m.Predict(fp.TestX); err != nil {
				return err
			}
			trained = m
		case "xgb":
			m := xgb.New(xgb.Config{
				NumRounds: o.rounds, LearningRate: 0.3, MaxDepth: 6,
				Gamma: o.gamma, Lambda: o.lambda, Alpha: o.alpha,
				MinChildWeight: 1, Subsample: 1, Seed: o.seed,
			})
			if err := m.Fit(fp.TrainX, fp.TrainY, numClasses, nil, nil); err != nil {
				return err
			}
			if pred, err = m.Predict(fp.TestX); err != nil {
				return err
			}
			trained = m
			names := core.CovFeatureNames()
			if o.features == "cov" {
				fmt.Println("top-3 features by gain importance:")
				for i, f := range m.TopFeatures(xgb.ImportanceGain, 3) {
					fmt.Printf("  %d. %s\n", i+1, names[f])
				}
			}
		}

	case "lstm", "lstm2", "cnnlstm":
		trainT := ch.Train.X.Downsample(o.stride)
		testT := ch.Test.X.Downsample(o.stride)
		testY = ch.Test.Y
		// Sequence models consume raw (downsampled) windows, no scaler/PCA.
		featuresKind = "sequence"
		window, sensors = trainT.T, trainT.C
		var m nn.SequenceClassifier
		switch o.model {
		case "lstm":
			m, err = nn.NewBiLSTMClassifier(trainT.C, o.hidden, trainT.T, numClasses, 1, o.seed)
		case "lstm2":
			m, err = nn.NewBiLSTMClassifier(trainT.C, o.hidden, trainT.T, numClasses, 2, o.seed)
		case "cnnlstm":
			m, err = nn.NewCNNLSTMClassifier(trainT.C, trainT.T, numClasses, nn.CNNLSTMOptions{Hidden: o.hidden, Seed: o.seed})
		}
		if err != nil {
			return err
		}
		cfg := nn.DefaultTrainConfig()
		cfg.Epochs = o.epochs
		cfg.Seed = o.seed
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		if _, err := nn.Train(m, trainT, ch.Train.Y, cfg); err != nil {
			return err
		}
		if pred, err = nn.Predict(m, testT, nil, cfg.BatchSize); err != nil {
			return err
		}
		trained = m

	default:
		return fmt.Errorf("unknown model %q", o.model)
	}

	acc, err := metrics.Accuracy(testY, pred)
	if err != nil {
		return err
	}
	fmt.Printf("test accuracy: %.2f%%\n", acc*100)

	// Open-set drift calibration for servable (cov-feature, probabilistic)
	// models: rejection threshold on the held-out test probabilities, input
	// reference on the raw training windows.
	var cal *drift.Calibration
	if o.out != "" && o.driftOn && covFP != nil {
		if cls, ok := trained.(interface {
			PredictProba(x *mat.Matrix) (*mat.Matrix, error)
		}); ok {
			probs, err := cls.PredictProba(covFP.TestX)
			if err != nil {
				return err
			}
			cal, err = drift.Fit(drift.FitInput{
				Probs:           probs,
				TrainFeatures:   covFP.TrainX,
				HeldOutFeatures: covFP.TestX,
				RawSamples:      core.RawSensorSamples(ch.Train.X),
			}, drift.Options{Quantile: o.driftQ, FeatQuantile: o.driftFeatQ})
			if err != nil {
				return err
			}
			fmt.Printf("calibrated open-set rejection at quantile %.3g (min conf %.3f, min margin %.3f, max energy %.3f; feature gate at quantile %.3g, max distance %.3f)\n",
				cal.Threshold.Quantile, cal.Threshold.MinConf, cal.Threshold.MinMargin,
				cal.Threshold.MaxEnergy, o.driftFeatQ, cal.Threshold.MaxFeatDist)
		}
	}

	if o.out != "" {
		a := &artifact.Artifact{
			Meta: artifact.Metadata{
				ClassNames:  telemetry.ClassNames(),
				Features:    featuresKind,
				Window:      window,
				Sensors:     sensors,
				Dataset:     o.dsName,
				Scale:       o.scale,
				Seed:        o.seed,
				MaxTrain:    o.maxTrain,
				MaxTest:     o.maxTest,
				Accuracy:    acc,
				CreatedUnix: time.Now().Unix(),
				Tool:        "wcctrain",
			},
			Scaler: scaler,
			PCA:    pca,
			Drift:  cal,
			Model:  trained,
		}
		if err := artifact.Save(o.out, a); err != nil {
			return err
		}
		fmt.Printf("saved %s artifact to %s\n", a.Meta.Kind, o.out)
	}

	if o.report {
		rep, err := metrics.Report(testY, pred, numClasses, telemetry.ClassNames())
		if err != nil {
			return err
		}
		fmt.Println(rep)
	}
	return nil
}
