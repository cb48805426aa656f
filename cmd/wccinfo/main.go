// Command wccinfo inspects this project's on-disk formats:
//
//   - challenge .npz archives (member arrays, shapes, dtypes, label
//     distribution, basic sensor statistics) — both wccgen output and the
//     real challenge downloads;
//   - .wcc model artifacts written by wcctrain -o / repro.SaveModel (format
//     version, model kind, classes, training provenance, section table).
//
// Artifacts are recognised by magic sniffing, not extension, so renamed
// files still inspect correctly.
//
// Usage:
//
//	wccinfo data/60-middle-1.npz
//	wccinfo -stats data/60-middle-1.npz
//	wccinfo rf-cov.wcc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/npz"
	"repro/internal/telemetry"
)

func main() {
	stats := flag.Bool("stats", false, "print per-sensor statistics of X_train (.npz only)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wccinfo [-stats] <file.npz | file.wcc>")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *stats); err != nil {
		fmt.Fprintln(os.Stderr, "wccinfo:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path string, stats bool) error {
	if artifact.Sniff(path) {
		return runArtifact(w, path)
	}
	ar, err := npz.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s:\n", path)
	for _, name := range ar.Names() {
		a, _ := ar.Get(name)
		fmt.Fprintf(w, "  %-12s shape=%v dtype=%s\n", name, a.Shape, a.DType)
	}

	if ya, ok := ar.Get("y_train"); ok {
		labels, err := ya.AsInts()
		if err != nil {
			return err
		}
		counts := map[int]int{}
		for _, y := range labels {
			counts[y]++
		}
		classes := make([]int, 0, len(counts))
		for c := range counts {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		fmt.Fprintf(w, "\n  label distribution (train, %d classes):\n", len(classes))
		var names []string
		if ma, ok := ar.Get("model_train"); ok {
			names = ma.Strings
		}
		for _, c := range classes {
			label := fmt.Sprintf("class %d", c)
			if names != nil {
				for i, y := range labels {
					if y == c {
						label = names[i]
						break
					}
				}
			}
			fmt.Fprintf(w, "    %-16s %5d\n", label, counts[c])
		}
	}

	if stats {
		xa, ok := ar.Get("X_train")
		if !ok || len(xa.Shape) != 3 {
			return fmt.Errorf("no 3-D X_train in archive")
		}
		data, err := xa.AsFloat64s()
		if err != nil {
			return err
		}
		n, t, c := xa.Shape[0], xa.Shape[1], xa.Shape[2]
		fmt.Fprintf(w, "\n  per-sensor statistics over %d trials x %d samples:\n", n, t)
		for ch := 0; ch < c; ch++ {
			var sum, sq, min, max float64
			min = 1e300
			max = -1e300
			count := 0
			for i := 0; i < n; i++ {
				for s := 0; s < t; s++ {
					v := data[(i*t+s)*c+ch]
					sum += v
					sq += v * v
					if v < min {
						min = v
					}
					if v > max {
						max = v
					}
					count++
				}
			}
			mean := sum / float64(count)
			std := sq/float64(count) - mean*mean
			if std < 0 {
				std = 0
			}
			name := fmt.Sprintf("sensor %d", ch)
			if ch < int(telemetry.NumGPUSensors) {
				name = telemetry.GPUSensor(ch).String()
			}
			fmt.Fprintf(w, "    %-24s mean=%10.2f std²=%12.2f min=%10.2f max=%10.2f\n",
				name, mean, std, min, max)
		}
	}
	return nil
}

// runArtifact prints a .wcc model artifact's metadata, drift calibration
// and section table without decoding the model payload.
func runArtifact(w io.Writer, path string) error {
	info, err := artifact.ReadInfoDetail(path)
	if err != nil {
		return err
	}
	m := info.Meta
	fmt.Fprintf(w, "%s: model artifact (format v%d)\n", path, info.FormatVersion)
	fmt.Fprintf(w, "  kind:      %s\n", m.Kind)
	if m.Features != "" {
		fmt.Fprintf(w, "  features:  %s\n", m.Features)
	}
	if m.Window > 0 && m.Sensors > 0 {
		fmt.Fprintf(w, "  window:    %dx%d\n", m.Window, m.Sensors)
	}
	if m.Dataset != "" {
		fmt.Fprintf(w, "  trained:   %s (scale %.2f, seed %d)\n", m.Dataset, m.Scale, m.Seed)
	}
	if m.Accuracy > 0 {
		fmt.Fprintf(w, "  accuracy:  %.2f%% on the held-out test split\n", m.Accuracy*100)
	}
	if m.CreatedUnix > 0 {
		fmt.Fprintf(w, "  created:   %s", time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339))
		if m.Tool != "" {
			fmt.Fprintf(w, " by %s", m.Tool)
		}
		fmt.Fprintln(w)
	}
	if len(m.ClassNames) > 0 {
		fmt.Fprintf(w, "  classes:   %d (%s, ...)\n", len(m.ClassNames),
			strings.Join(m.ClassNames[:min(4, len(m.ClassNames))], ", "))
	}
	if d := info.Drift; d != nil {
		fmt.Fprintf(w, "  drift:     open-set rejection at quantile %.3g (min conf %.3f, min margin %.3f, max energy %.3f, T %.2g)",
			d.Threshold.Quantile, d.Threshold.MinConf, d.Threshold.MinMargin,
			d.Threshold.MaxEnergy, d.Threshold.Temperature)
		if d.Feat != nil && d.Threshold.MaxFeatDist > 0 {
			fmt.Fprintf(w, "; feature gate over %d train rows (max distance %.3f)", d.Feat.Train.Rows, d.Threshold.MaxFeatDist)
		}
		fmt.Fprintf(w, "; reference %d sensors x %d bins\n", d.Ref.Sensors(), d.Ref.Bins)
	}
	fmt.Fprintln(w, "  sections:")
	for _, s := range info.Sections {
		fmt.Fprintf(w, "    %-8s %8d bytes  crc32 %08x\n", s.Name, s.Length, s.CRC)
	}
	return nil
}
