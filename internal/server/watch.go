package server

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// WatchConfig describes one artifact path to poll for hot-swaps into a
// live fleet.
type WatchConfig struct {
	// Path is the .wcc artifact to watch.
	Path string
	// Every is the poll interval (default 2s).
	Every time.Duration
	// Swap installs the artifact at Path each time its content changes and
	// returns the installed metadata: Server.InstallFile for one process,
	// or the cluster control plane's fleet-wide rolling swap
	// (cluster.Node.DistributeFile). Required.
	Swap func(path string) (artifact.Metadata, error)
	// Logf, when non-nil, receives one line per swap or skipped reload.
	Logf func(format string, args ...any)
}

// Watch polls the artifact path until stop is closed, handing each content
// change to cfg.Swap. Replacement is detected by artifact identity — the
// container's section CRCs via artifact.Identity, the same fingerprint the
// cluster control plane converges on — not by os.Stat, so a retrained model
// atomically renamed into place is caught even when the new file has the
// same size and a same-granularity mtime (coarse filesystem timestamps make
// that a real occurrence for fast retrain loops). artifact.Save renames
// atomically, so a poll never reads a torn file; a path that is briefly
// unreadable is retried next poll.
func Watch(stop <-chan struct{}, cfg WatchConfig) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Every <= 0 {
		cfg.Every = 2 * time.Second
	}
	last, err := artifact.Identity(cfg.Path)
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
			ident, err := artifact.Identity(cfg.Path)
			if err != nil || ident == last {
				continue
			}
			last = ident
			meta, err := cfg.Swap(cfg.Path)
			if err != nil {
				logf("model reload skipped: %v", err)
				continue
			}
			logf("hot-swapped %s model (accuracy %.2f%%) into the live fleet", meta.Kind, meta.Accuracy*100)
		}
	}
}

// Servable is the static half of "can this artifact serve live telemetry":
// covariance features, a model, a valid window shape, a scaler fitted for
// that shape, and a drift calibration (if any) that fits the sensor count
// and embedding width. That the model can classify a stream is its type
// (artifact.Model), not a check made here. It reads the artifact alone, so it
// is the whole gate at boot (NewCore) and for a caller that only loads
// (repro.LoadModel); ServableModel adds the comparisons a live fleet needs.
func Servable(a *artifact.Artifact) (stream.Classifier, error) {
	if a.Meta.Features != "cov" {
		return nil, fmt.Errorf("artifact has %q features; live serving needs a covariance-feature model", a.Meta.Features)
	}
	if a.Model == nil {
		return nil, errors.New("artifact carries no model")
	}
	if a.Meta.Window < 2 || a.Meta.Sensors < 1 {
		return nil, fmt.Errorf("artifact window shape %dx%d is invalid", a.Meta.Window, a.Meta.Sensors)
	}
	if a.Scaler == nil {
		return nil, errors.New("artifact carries no scaler; live windows cannot be standardised")
	}
	if len(a.Scaler.Means) != a.Meta.Window*a.Meta.Sensors {
		return nil, fmt.Errorf("artifact scaler covers %d columns, a %dx%d window has %d",
			len(a.Scaler.Means), a.Meta.Window, a.Meta.Sensors, a.Meta.Window*a.Meta.Sensors)
	}
	if err := fleet.CheckCalibration(a.Drift, a.Meta.Sensors); err != nil {
		return nil, err
	}
	return a.Model, nil
}

// NewCore is the one way an artifact becomes a serving core: gate it, then
// build the sharded core from nothing but the artifact — window shape,
// scaler, classifier and calibration all come from it, which is what makes
// generation 0 the same kind of thing as every generation Install brings
// later. shards ≤ 0 selects GOMAXPROCS; now, when non-nil, is the core's
// injected clock.
func NewCore(a *artifact.Artifact, shards int, now func() time.Time) (*fleet.Monitor, error) {
	cls, err := Servable(a)
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return fleet.New(fleet.Config{
		Window:  a.Meta.Window,
		Sensors: a.Meta.Sensors,
		Scaler:  a.Scaler,
		Model:   cls,
		Shards:  shards,
		Drift:   a.Drift,
		Now:     now,
	})
}

// ServableModel validates that a decoded artifact can serve the fleet this
// server drives and returns its classifier: Servable, plus the two
// comparisons only a live fleet can make. Per-job window state survives a
// swap, so the replacement must consume the same window shape and the exact
// scaler statistics the fleet's embedders were built with, and the fleet
// itself is where those are read from. Install runs the gate before every
// swap; the cluster control plane runs it on every node during a rolling
// swap's prepare phase, so an artifact that commit would refuse is refused
// fleet-wide before any node commits.
func (s *Server) ServableModel(a *artifact.Artifact) (stream.Classifier, error) {
	cls, err := Servable(a)
	if err != nil {
		return nil, err
	}
	if window, sensors := s.m.Window(), s.m.Sensors(); a.Meta.Window != window || a.Meta.Sensors != sensors {
		return nil, fmt.Errorf("window shape %dx%d differs from serving %dx%d",
			a.Meta.Window, a.Meta.Sensors, window, sensors)
	}
	if !a.Scaler.Equal(s.m.Scaler()) {
		return nil, errors.New("scaler statistics differ from the serving scaler")
	}
	return cls, nil
}

// Install is the one way a model generation enters a serving process: gate
// the decoded artifact against the live fleet, swap its classifier in, and
// take its class names. The artifact watcher (InstallFile), a cluster
// commit and an anti-entropy catch-up all end here, so what a swap changes
// cannot depend on which of them delivered it.
func (s *Server) Install(a *artifact.Artifact) error {
	cls, err := s.ServableModel(a)
	if err != nil {
		return err
	}
	// The replacement model brings its own drift calibration (or none):
	// swapping both together keeps open-set verdicts coherent — thresholds
	// calibrated on the outgoing model's probability distribution must
	// never score the incoming model.
	if err := s.m.SwapClassifierDrift(cls, a.Drift); err != nil {
		return err
	}
	// A promoted adapt candidate widens the class set; responses must name
	// the novel classes as soon as the swap lands.
	if len(a.Meta.ClassNames) > 0 {
		s.namesMu.Lock()
		s.classNames = a.Meta.ClassNames
		s.namesMu.Unlock()
	}
	return nil
}

// InstallFile loads the artifact at path and installs it — the
// single-process WatchConfig.Swap.
func (s *Server) InstallFile(path string) (artifact.Metadata, error) {
	a, err := artifact.Load(path)
	if err != nil {
		return artifact.Metadata{}, err
	}
	if err := s.Install(a); err != nil {
		return artifact.Metadata{}, err
	}
	return a.Meta, nil
}
