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
// Every arm trains and reports. With -o the fitted estimator is also
// persisted as a versioned .wcc artifact bundling the model, its scaler, the
// open-set drift calibration and training provenance; wccserve -model serves
// it and wccinfo inspects it:
//
//	wcctrain -model rf -features cov -trees 100 -o rf-cov.wcc
//
// A .wcc is a model a core can load, so -o takes -model rf or xgb on
// -features cov and is refused, before anything is simulated, with the rest.
//
// The flags choose a core.Provenance (regenerated into the dataset) and an
// estimator; for rf and xgb on cov features core.TrainArtifact — the training
// path repro.TrainRFCov and the adapt flywheel share — fits, scores the test
// split once, calibrates, bundles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/xgb"
)

func main() {
	var o opts
	flag.StringVar(&o.model, "model", "rf", "rf, svm, linear-svm, xgb, lstm, lstm2, cnnlstm")
	flag.StringVar(&o.features, "features", "cov", "cov or pca (classical models only)")
	flag.StringVar(&o.dsName, "dataset", "60-middle-1", "challenge dataset name")
	flag.Float64Var(&o.scale, "scale", 0.15, "generation scale")
	flag.Int64Var(&o.seed, "seed", 1, "seed")
	flag.IntVar(&o.maxTrain, "max-train", 800, "training trials cap (0 = all)")
	flag.IntVar(&o.maxTest, "max-test", 400, "test trials cap (0 = all)")
	flag.BoolVar(&o.report, "report", false, "print the per-class report")
	flag.StringVar(&o.out, "o", "", "write the fitted model as a .wcc artifact to this path (-model rf or xgb with -features cov: the models wccserve can load)")
	flag.BoolVar(&o.driftOn, "drift", true, "with -o: calibrate and persist the open-set drift section (unknown-workload rejection threshold + input reference)")
	flag.Float64Var(&o.driftQ, "drift-quantile", drift.DefaultQuantile, "calibration quantile of the probability rejection rules (confidence, margin, energy) over held-out in-distribution scores; with -families the default is the quantile -base was calibrated at")
	flag.Float64Var(&o.driftFeatQ, "drift-feat-quantile", drift.DefaultFeatQuantile, "calibration quantile of the feature-space distance gate — the rule that carries most rejection recall; raise it to trade recall for fewer in-distribution false flags")

	flag.IntVar(&o.pcaDim, "pca-dim", 64, "PCA dimensions")
	flag.Float64Var(&o.c, "C", 1, "SVM regularisation")
	flag.IntVar(&o.trees, "trees", 100, "forest size")
	flag.IntVar(&o.rounds, "rounds", 40, "boosting rounds")
	flag.Float64Var(&o.gamma, "gamma", 0, "XGBoost gamma")
	flag.Float64Var(&o.lambda, "lambda", 1, "XGBoost lambda")
	flag.Float64Var(&o.alpha, "alpha", 0, "XGBoost alpha")

	flag.IntVar(&o.hidden, "hidden", 32, "LSTM hidden size")
	flag.IntVar(&o.epochs, "epochs", 10, "training epochs")
	flag.IntVar(&o.stride, "stride", 10, "sequence downsampling stride")

	families := flag.String("families", "", "offline continual learning: JSON family bundle from GET /v1/adapt/families; widens -base with one class per family and writes the candidate to -o")
	baseArt := flag.String("base", "", "with -families: the serving .wcc artifact the candidate extends (source of provenance, trial caps, forest size and scaler)")
	flag.Parse()

	var err error
	if *families != "" {
		// Only a -drift-quantile given on the command line overrides the
		// one the base was calibrated at; 0 leaves it to the trainer.
		q := 0.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "drift-quantile" {
				q = o.driftQ
			}
		})
		err = runFamilies(os.Stdout, *families, *baseArt, o.out, q, o.driftFeatQ)
	} else {
		err = run(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcctrain:", err)
		os.Exit(1)
	}
}

// runFamilies is the offline half of the continual-learning flywheel: it
// rebuilds exactly the candidate the in-process flywheel would, from a
// family bundle exported on GET /v1/adapt/families — the same
// adapt.NewProvenanceTrainer over -base, so dataset, caps, forest size,
// scaler and calibration quantile all come from the base artifact, not from
// this command's flags (driftQ 0 keeps the base's quantile). The result
// drops onto the watched model path (or cluster distribution) like any
// other artifact.
func runFamilies(w io.Writer, famPath, basePath, out string, driftQ, driftFeatQ float64) error {
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
	fmt.Fprintf(w, "widening %d-class %s base with %d famil(ies) from %s\n",
		len(base.Meta.ClassNames), base.Meta.Kind, len(fams), famPath)
	trainer := adapt.NewProvenanceTrainer(base, logf)
	if driftQ != 0 {
		trainer.Quantile = driftQ
	}
	trainer.FeatQuantile = driftFeatQ
	cand, err := trainer.Train(fams)
	if err != nil {
		return err
	}
	if err := artifact.Save(out, cand); err != nil {
		return err
	}
	fmt.Fprintf(w, "saved %d-class candidate (%d novel, base accuracy %.2f%%) to %s\n",
		len(cand.Meta.ClassNames), cand.Meta.NovelClasses, cand.Meta.Accuracy*100, out)
	return nil
}

// logf reports training progress on stderr.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// opts holds the flags of a plain training run.
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

// servable reports whether the flags name a model a .wcc can carry.
func (o opts) servable() bool {
	return (o.model == "rf" || o.model == "xgb") && o.features == "cov"
}

// outcome is what a training arm reports: accuracy and predictions on the
// test split and, for a servable model, the artifact -o saves.
type outcome struct {
	accuracy float64
	pred     []int
	artifact *artifact.Artifact
}

// scored measures pred against the test labels.
func scored(truth, pred []int) (outcome, error) {
	acc, err := metrics.Accuracy(truth, pred)
	return outcome{accuracy: acc, pred: pred}, err
}

func run(w io.Writer, o opts) error {
	// Refuse what no arm below handles, and a -o that could only write a
	// file no core loads, before paying for a simulation (Regenerate does
	// the same for the dataset name).
	var train func(io.Writer, opts, core.Provenance, *dataset.Challenge) (outcome, error)
	switch o.model {
	case "rf", "svm", "linear-svm", "xgb":
		if o.features != "cov" && o.features != "pca" {
			return fmt.Errorf("unknown features %q", o.features)
		}
		train = trainClassical
	case "lstm", "lstm2", "cnnlstm":
		train = trainSequence
	default:
		return fmt.Errorf("unknown model %q", o.model)
	}
	if o.out != "" && !o.servable() {
		return fmt.Errorf("-o needs -model rf or xgb with -features cov: nothing else can be served, so nothing else is saved")
	}
	p := core.Provenance{Dataset: o.dsName, Scale: o.scale, Seed: o.seed, MaxTrain: o.maxTrain, MaxTest: o.maxTest}
	_, ch, err := p.Regenerate()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset %s: %d train / %d test trials\n", o.dsName, ch.Train.Len(), ch.Test.Len())

	res, err := train(w, o, p, ch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "test accuracy: %.2f%%\n", res.accuracy*100)
	if a := res.artifact; a != nil && a.Drift != nil {
		thr := a.Drift.Threshold
		fmt.Fprintf(w, "calibrated open-set rejection at quantile %.3g (min conf %.3f, min margin %.3f, max energy %.3f; feature gate at quantile %.3g, max distance %.3f)\n",
			thr.Quantile, thr.MinConf, thr.MinMargin, thr.MaxEnergy, o.driftFeatQ, thr.MaxFeatDist)
	}
	if o.out != "" {
		if err := artifact.Save(o.out, res.artifact); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved %s artifact to %s\n", res.artifact.Meta.Kind, o.out)
	}
	if o.report {
		rep, err := metrics.Report(ch.Test.Y, res.pred, int(telemetry.NumClasses), telemetry.ClassNames())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep)
	}
	return nil
}

// trainClassical embeds the challenge, picks the estimator and fits it. A
// servable one goes through core.TrainArtifact, which fits, scores the test
// split once, calibrates and bundles; the rest are fitted and scored here.
func trainClassical(w io.Writer, o opts, p core.Provenance, ch *dataset.Challenge) (outcome, error) {
	var fp *core.FeaturePair
	var err error
	if o.features == "cov" {
		fp, err = core.CovFeatures(ch)
	} else {
		fp, err = core.PCAFeatures(ch, o.pcaDim, o.seed)
	}
	if err != nil {
		return outcome{}, err
	}
	numClasses := int(telemetry.NumClasses)
	var model interface {
		Predict(x *mat.Matrix) ([]int, error)
	}
	var carried artifact.Model // the rf and xgb arms: what an artifact can carry
	var fit func() error
	switch o.model {
	case "rf":
		m := forest.New(forest.Config{NumTrees: o.trees, Bootstrap: true, Seed: o.seed})
		model, carried, fit = m, m, func() error { return m.Fit(fp.TrainX, fp.TrainY, numClasses) }
	case "svm":
		m := svm.New(svm.Config{C: o.c, Seed: o.seed})
		model, fit = m, func() error { return m.Fit(fp.TrainX, fp.TrainY) }
	case "linear-svm":
		m := svm.NewLinear(svm.LinearConfig{C: o.c, Epochs: 100, Tol: 1e-4, Seed: o.seed})
		model, fit = m, func() error { return m.Fit(fp.TrainX, fp.TrainY, numClasses) }
	case "xgb":
		m := xgb.New(xgb.Config{
			NumRounds: o.rounds, LearningRate: 0.3, MaxDepth: 6,
			Gamma: o.gamma, Lambda: o.lambda, Alpha: o.alpha,
			MinChildWeight: 1, Subsample: 1, Seed: o.seed,
		})
		model, carried, fit = m, m, func() error { return m.Fit(fp.TrainX, fp.TrainY, numClasses, nil, nil) }
	}
	if !o.servable() {
		if err := fit(); err != nil {
			return outcome{}, err
		}
		pred, err := model.Predict(fp.TestX)
		if err != nil {
			return outcome{}, err
		}
		return scored(fp.TestY, pred)
	}
	// The open-set drift section is for artifacts that get written.
	var raw *mat.Matrix
	if o.out != "" && o.driftOn {
		raw = core.RawSensorSamples(ch.Train.X)
	}
	a, held, err := core.TrainArtifact(p.Metadata(ch.Train.X, "cov", "wcctrain"), fp, carried, fit,
		raw, drift.Options{Quantile: o.driftQ, FeatQuantile: o.driftFeatQ})
	if err != nil {
		return outcome{}, err
	}
	if m, ok := model.(*xgb.Classifier); ok {
		names := core.CovFeatureNames()
		fmt.Fprintln(w, "top-3 features by gain importance:")
		for i, f := range m.TopFeatures(xgb.ImportanceGain, 3) {
			fmt.Fprintf(w, "  %d. %s\n", i+1, names[f])
		}
	}
	return outcome{accuracy: a.Meta.Accuracy, pred: held.Pred, artifact: a}, nil
}

// trainSequence trains an RNN on the raw (downsampled) windows and scores
// the test split.
func trainSequence(_ io.Writer, o opts, _ core.Provenance, ch *dataset.Challenge) (outcome, error) {
	trainT := ch.Train.X.Downsample(o.stride)
	testT := ch.Test.X.Downsample(o.stride)
	numClasses := int(telemetry.NumClasses)
	var m nn.SequenceClassifier
	var err error
	switch o.model {
	case "lstm":
		m, err = nn.NewBiLSTMClassifier(trainT.C, o.hidden, trainT.T, numClasses, 1, o.seed)
	case "lstm2":
		m, err = nn.NewBiLSTMClassifier(trainT.C, o.hidden, trainT.T, numClasses, 2, o.seed)
	case "cnnlstm":
		m, err = nn.NewCNNLSTMClassifier(trainT.C, trainT.T, numClasses, nn.CNNLSTMOptions{Hidden: o.hidden, Seed: o.seed})
	}
	if err != nil {
		return outcome{}, err
	}
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = o.epochs
	cfg.Seed = o.seed
	cfg.Logf = logf
	if _, err := nn.Train(m, trainT, ch.Train.Y, cfg); err != nil {
		return outcome{}, err
	}
	pred, err := nn.Predict(m, testT, nil, cfg.BatchSize)
	if err != nil {
		return outcome{}, err
	}
	return scored(ch.Test.Y, pred)
}
