package server

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// parseBenchLines is the body length of BenchmarkParseLines, a backfill
// batch.
const parseBenchLines = 1024

// parseBenchSamples returns parseBenchLines simulated DCGM samples, 7
// sensors each, spread over 64 jobs the way a backfill batch is: job k%64
// sends its next GPU sample on line k.
func parseBenchSamples(tb testing.TB) (jobs []int, samples [][]float64) {
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	const nJobs, start = 64, 120.0
	steps := parseBenchLines / nJobs
	var src [][]float64
	for _, j := range sim.Jobs() {
		if j.Duration < start+float64(steps)*telemetry.GPUSampleDT {
			continue
		}
		w, err := j.GPUWindow(0, start, steps)
		if err != nil {
			tb.Fatal(err)
		}
		src = append(src, w.Data)
	}
	if len(src) == 0 {
		tb.Fatal("no simulated job runs long enough")
	}
	sensors := int(telemetry.NumGPUSensors)
	for k := range parseBenchLines {
		job, step := k%nJobs, k/nJobs
		row := src[job%len(src)][step*sensors : (step+1)*sensors]
		jobs, samples = append(jobs, job), append(samples, row)
	}
	return jobs, samples
}

// ndjsonBody writes one canonical NDJSON line per sample, each reading
// through format.
func ndjsonBody(jobs []int, samples [][]float64, format func([]byte, float64) []byte) []byte {
	var body []byte
	for k, values := range samples {
		body = append(body, `{"job":`...)
		body = strconv.AppendInt(body, int64(jobs[k]), 10)
		body = append(body, `,"values":[`...)
		for i, v := range values {
			if i > 0 {
				body = append(body, ',')
			}
			body = format(body, v)
		}
		body = append(body, "]}\n"...)
	}
	return body
}

// dcgmValue writes a reading as producers do ('g', -1: integers and short
// decimals, the number decoder's exact path).
func dcgmValue(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }

// binaryBody frames the samples as binary ingest records.
func binaryBody(jobs []int, samples [][]float64) []byte {
	var body []byte
	for k, values := range samples {
		body = wire.AppendIngestRecord(body, int64(jobs[k]), values)
	}
	return body
}

// BenchmarkParseLines is the NDJSON parse stage's rung: ns/sample to decode
// a 1 024-line body in the served shape into the pooled scratch. ndjson/dcgm
// writes the simulated readings as producers do (dcgmValue); ndjson/full
// perturbs each reading and writes 17 significant digits, which the exact
// path cannot hold, so every value takes the strconv fallback; binary
// decodes the same dcgm samples from the binary framing.
func BenchmarkParseLines(b *testing.B) {
	jobs, samples := parseBenchSamples(b)
	full := func(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v+1/math.Pi, 'g', 17, 64) }
	for _, c := range []struct {
		name  string
		body  []byte
		parse func(*ingestScratch) ([]LineError, error)
	}{
		{"ndjson/dcgm", ndjsonBody(jobs, samples, dcgmValue), parseLines},
		{"ndjson/full", ndjsonBody(jobs, samples, full), parseLines},
		{"binary", binaryBody(jobs, samples), parseBinary},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := &ingestScratch{body: c.body}
			b.SetBytes(int64(len(c.body)))
			for b.Loop() {
				errs, err := c.parse(sc)
				if got := len(sc.batch.Samples); err != nil || len(errs) != 0 || got != parseBenchLines {
					b.Fatalf("parsed %d samples, %d line errors, err %v", got, len(errs), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*parseBenchLines), "ns/sample")
		})
	}
}
