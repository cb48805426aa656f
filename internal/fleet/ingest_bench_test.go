package fleet

import (
	"errors"
	"testing"

	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
)

// noModel stands in for a classifier where nothing classifies: Ingest never
// calls the model.
type noModel struct{}

func (noModel) PredictProba(*mat.Matrix) (*mat.Matrix, error) {
	return nil, errors.New("fleet: no model in an ingest benchmark")
}

// BenchmarkIngest times Monitor.Ingest and Monitor.IngestBatch, the
// per-sample cost every served sample pays under its stripe mutex, in the
// served shape: 7 DCGM sensors, 540-sample windows and a calibration with
// 16-bin reference histograms, so each sample is gated, pushed into its
// job's ring and binned. The samples are simulated telemetry, each job's in
// stream order, and the scaler and reference are fitted on them. "fill"
// times samples that fill a window (a job registers every 540 samples and
// is ended when full, outside the clock, where a tick drops its queue entry
// so the ended window is not retained); "full" times samples into 64 full
// windows, each evicting the sample it replaces, one Ingest call each, in
// blocks of 64 per job as a backfill batch delivers them; "batch" feeds the
// same 64 full windows one IngestBatch call per 1 024-sample body, job k%64
// on line k, the body a backfill request carries. All three report
// ns/sample. They loop over b.N, not b.Loop: fill stops the clock inside
// its loop, which b.Loop does not support.
func BenchmarkIngest(b *testing.B) {
	const (
		window = 540
		jobs   = 64
		block  = 64
		body   = 1024
	)
	sensors := int(telemetry.NumGPUSensors)
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	var series []*mat.Matrix
	for _, j := range sim.Jobs() {
		if len(series) == jobs {
			break
		}
		if j.Duration < 120+2*window*telemetry.GPUSampleDT {
			continue
		}
		w, err := j.GPUWindow(0, 120, 2*window)
		if err != nil {
			b.Fatal(err)
		}
		series = append(series, w)
	}
	flat := mat.New(len(series), window*sensors)
	raw := mat.New(len(series)*2*window, sensors)
	for k, s := range series {
		copy(flat.Row(k), s.Data[:window*sensors])
		copy(raw.Data[k*len(s.Data):], s.Data)
	}
	var scaler preprocess.StandardScaler
	if err := scaler.Fit(flat); err != nil {
		b.Fatal(err)
	}
	cal, err := drift.Fit(drift.FitInput{RawSamples: raw}, drift.Options{Bins: 16})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{Window: window, Sensors: sensors, Scaler: &scaler, Model: noModel{}, Drift: cal})
	if err != nil {
		b.Fatal(err)
	}
	fillAll := func(b *testing.B) {
		for j, s := range series {
			for i := range window {
				if err := m.Ingest(j, s.Row(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	perSample := func(b *testing.B, samples int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
	}

	id := 1 << 20
	b.Run("fill", func(b *testing.B) {
		step := 0
		for range b.N {
			s := series[id%len(series)]
			if err := m.Ingest(id, s.Row(step)); err != nil {
				b.Fatal(err)
			}
			if step++; step == window {
				b.StopTimer()
				m.EndJob(id)
				if _, err := m.Tick(); err != nil {
					b.Fatal(err)
				}
				id, step = id+1, 0
				b.StartTimer()
			}
		}
		b.StopTimer()
		m.EndJob(id) // the next run starts on a fresh job
		id++
		perSample(b, b.N)
	})

	b.Run("full", func(b *testing.B) {
		fillAll(b)
		b.ResetTimer()
		j, i := 0, window
		for range b.N {
			s := series[j]
			if err := m.Ingest(j, s.Row(i%s.Rows)); err != nil {
				b.Fatal(err)
			}
			if i++; i%block == 0 {
				j = (j + 1) % len(series)
			}
		}
		perSample(b, b.N)
	})

	b.Run("batch", func(b *testing.B) {
		fillAll(b)
		var batch Batch
		for k := range body {
			s := series[k%len(series)]
			batch.Samples = append(batch.Samples, Sample{Job: k % len(series), Values: s.Row(window + k/len(series))})
		}
		b.ResetTimer()
		for range b.N {
			if errs := m.IngestBatch(&batch); len(errs) != 0 {
				b.Fatal(errs[0].Err)
			}
		}
		perSample(b, b.N*body)
	})
}
