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
func parseBenchSamples(b *testing.B) (jobs []int, samples [][]float64) {
	sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
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
			b.Fatal(err)
		}
		src = append(src, w.Data)
	}
	if len(src) == 0 {
		b.Fatal("no simulated job runs long enough")
	}
	sensors := int(telemetry.NumGPUSensors)
	for k := range parseBenchLines {
		job, step := k%nJobs, k/nJobs
		row := src[job%len(src)][step*sensors : (step+1)*sensors]
		jobs, samples = append(jobs, job), append(samples, row)
	}
	return jobs, samples
}

// BenchmarkParseLines is the NDJSON parse stage's rung: ns/sample to decode
// a 1 024-line body in the served shape into the pooled scratch. ndjson/dcgm
// writes the simulated readings as producers do ('g', -1: integers and short
// decimals, the number decoder's exact path); ndjson/full perturbs each
// reading and writes 17 significant digits, which the exact path cannot
// hold, so every value takes the strconv fallback; binary decodes the same
// dcgm samples from the binary framing.
func BenchmarkParseLines(b *testing.B) {
	jobs, samples := parseBenchSamples(b)
	ndjson := func(format func([]byte, float64) []byte) []byte {
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
	dcgm := ndjson(func(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) })
	full := ndjson(func(dst []byte, v float64) []byte {
		return strconv.AppendFloat(dst, v+1/math.Pi, 'g', 17, 64)
	})
	var binary []byte
	for k, values := range samples {
		binary = wire.AppendIngestRecord(binary, int64(jobs[k]), values)
	}

	for _, c := range []struct {
		name  string
		body  []byte
		parse func(*ingestScratch) ([]Sample, []LineError, error)
	}{
		{"ndjson/dcgm", dcgm, parseLines},
		{"ndjson/full", full, parseLines},
		{"binary", binary, parseBinary},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := &ingestScratch{body: c.body}
			b.SetBytes(int64(len(c.body)))
			for b.Loop() {
				got, errs, err := c.parse(sc)
				if err != nil || len(errs) != 0 || len(got) != parseBenchLines {
					b.Fatalf("parsed %d samples, %d line errors, err %v", len(got), len(errs), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*parseBenchLines), "ns/sample")
		})
	}
}
