package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/preprocess"
	"repro/internal/stream"
)

// WatchConfig describes one artifact path to poll for hot-swaps into a
// live fleet.
type WatchConfig struct {
	// Path is the .wcc artifact to watch.
	Path string
	// Every is the poll interval (default 2s).
	Every time.Duration
	// Monitor receives the swapped classifier: SwapClassifierDrift installs
	// the artifact's model and calibration on every shard atomically.
	Monitor Monitor
	// Window, Sensors and Scaler are the serving fleet's shape and
	// preprocessing statistics; a replacement artifact must match all
	// three, because per-job window state survives the swap.
	Window  int
	Sensors int
	Scaler  *preprocess.StandardScaler
	// OnSwap, when non-nil, is called after each successful swap.
	OnSwap func(meta artifact.Metadata)
	// Distribute, when non-nil, replaces the local swap with a fleet-wide
	// one: each detected content change is handed to it (the cluster
	// control plane's rolling-swap orchestration — see internal/cluster)
	// instead of being installed on this process's monitor alone. OnSwap
	// still fires after Distribute succeeds.
	Distribute func(path string) (artifact.Metadata, error)
	// Logf, when non-nil, receives skipped-reload diagnostics.
	Logf func(format string, args ...any)
}

// Watch polls the artifact path until stop is closed, hot-swapping each
// content change into the monitor. Replacement is detected by artifact
// identity — the container's section CRCs via artifact.ReadInfo — not by
// os.Stat, so a retrained model atomically renamed into place is caught
// even when the new file has the same size and a same-granularity mtime
// (coarse filesystem timestamps make that a real occurrence for fast
// retrain loops). artifact.Save renames atomically, so a poll never reads
// a torn file; a path that is briefly unreadable is retried next poll.
func Watch(stop <-chan struct{}, cfg WatchConfig) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Every <= 0 {
		cfg.Every = 2 * time.Second
	}
	last, err := artifactIdentity(cfg.Path)
	if err != nil {
		logf("artifact watch: initial read of %s: %v", cfg.Path, err)
	}
	t := time.NewTicker(cfg.Every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			ident, err := artifactIdentity(cfg.Path)
			if err != nil || ident == last {
				continue
			}
			last = ident
			swap := swapFromPath
			if cfg.Distribute != nil {
				swap = func(cfg WatchConfig) (artifact.Metadata, error) { return cfg.Distribute(cfg.Path) }
			}
			meta, err := swap(cfg)
			if err != nil {
				logf("model reload skipped: %v", err)
				continue
			}
			if cfg.OnSwap != nil {
				cfg.OnSwap(meta)
			}
		}
	}
}

// artifactIdentity fingerprints an artifact by its container contents —
// format version plus every section's name, length and CRC32 — so two
// files with identical stat signatures but different payloads still
// compare as different. The fingerprint itself lives in the artifact
// package because the cluster control plane uses the same identity as its
// replication-convergence check.
func artifactIdentity(path string) (string, error) {
	return artifact.Identity(path)
}

// ServableModel validates that a decoded artifact can serve a live fleet
// of the given shape and returns its classifier. The gates exist because
// per-job window state survives a swap: the replacement must consume the
// same window shape and the exact scaler statistics the fleet's embedders
// were built with. The watcher runs these gates before every hot-swap;
// the cluster control plane (internal/cluster) runs the same gates on
// every node during a rolling swap's prepare phase, so an incompatible
// artifact is refused fleet-wide before any node commits.
func ServableModel(a *artifact.Artifact, window, sensors int, scaler *preprocess.StandardScaler) (stream.Classifier, error) {
	if a.Meta.Features != "cov" {
		return nil, fmt.Errorf("artifact has %q features; live serving needs a covariance-feature model", a.Meta.Features)
	}
	cls, ok := a.Model.(stream.Classifier)
	if !ok {
		return nil, fmt.Errorf("%s models cannot serve streaming windows", a.Meta.Kind)
	}
	if a.Meta.Window != window || a.Meta.Sensors != sensors {
		return nil, fmt.Errorf("window shape %dx%d differs from serving %dx%d",
			a.Meta.Window, a.Meta.Sensors, window, sensors)
	}
	if a.Scaler == nil {
		return nil, errors.New("artifact carries no scaler")
	}
	if !a.Scaler.Equal(scaler) {
		return nil, errors.New("scaler statistics differ from the serving scaler")
	}
	return cls, nil
}

// swapFromPath loads the artifact and, when it is compatible with the
// serving fleet, swaps its classifier in.
func swapFromPath(cfg WatchConfig) (artifact.Metadata, error) {
	a, err := artifact.Load(cfg.Path)
	if err != nil {
		return artifact.Metadata{}, err
	}
	cls, err := ServableModel(a, cfg.Window, cfg.Sensors, cfg.Scaler)
	if err != nil {
		return artifact.Metadata{}, err
	}
	// The replacement model brings its own drift calibration (or none):
	// swapping both together keeps open-set verdicts coherent — thresholds
	// calibrated on the outgoing model's probability distribution must
	// never score the incoming model.
	if err := cfg.Monitor.SwapClassifierDrift(cls, a.Drift); err != nil {
		return artifact.Metadata{}, err
	}
	return a.Meta, nil
}
