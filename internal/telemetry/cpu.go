package telemetry

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// CPUSeries materialises the per-node Slurm-profiling time series for one
// node of a job, covering the whole job duration at CPUSampleDT resolution.
// The result is an n×8 matrix whose columns follow the Table II order
// (CPUFrequency, CPUTime, CPUUtilization, RSS, VMSize, Pages, ReadMB,
// WriteMB). CPUTime, Pages, ReadMB and WriteMB are cumulative counters, as
// in the real dataset.
//
// CPU series intentionally have different lengths from GPU series for the
// same job — the paper highlights this misalignment as one of the
// challenge's difficulties.
func (j *Job) CPUSeries(node int) (*mat.Matrix, error) {
	if node < 0 || node >= j.NumNodes {
		return nil, fmt.Errorf("telemetry: job %d has %d nodes, requested %d", j.ID, j.NumNodes, node)
	}
	n := int(j.Duration / CPUSampleDT)
	if n < 1 {
		n = 1
	}
	out := mat.New(n, int(NumCPUSensors))
	p := j.prof

	stream := streamSeed(j.Seed, 1000+node, chUtil)
	freqStream := streamSeed(j.Seed, 1000+node, chPower)
	rssStream := streamSeed(j.Seed, 1000+node, chMem)
	// The node's first GPU carries the stall schedule the host couples to
	// (GPU 0 when the job has fewer GPUs than the node would hold).
	gpu := node * GPUsPerNode
	if gpu >= j.NumGPUs {
		gpu = 0
	}
	stalls := j.stallCursor(gpu)

	// Cumulative counters.
	var cpuTime, pages, readMB, writeMB float64
	stepsPerSample := CPUSampleDT / p.StepTime

	for i := 0; i < n; i++ {
		t := float64(i) * CPUSampleDT
		ph, _ := j.phaseAt(t)

		var util, rss float64
		switch ph {
		case phaseStartup:
			util = clamp(85+8*hashNormal(stream, int64(i)), 0, 100)
			rss = 2000 + (t/math.Max(j.Startup, 1))*float64(30000)
			readMB += 250 * CPUSampleDT / math.Max(j.Startup, 1) * 60 // dataset staging
		case phaseTrain:
			// The host-side pipeline couples to GPU stalls: while the GPU
			// starves, the dataloader works flat out to refill its queue.
			// This anti-correlation between CPU and GPU utilization is the
			// cross-device covariance the paper's §IV-B importance analysis
			// singles out.
			stallFrac := stalls.fraction(t, CPUSampleDT)
			util = clamp(p.CPUUtilPct+28*stallFrac+6*hashNormal(stream, int64(i)), 0, 100)
			rss = 34000 + 2500*hashNormal(rssStream, int64(i))*0.1
			readMB += p.ReadMBPerStep * stepsPerSample
		case phaseValidation:
			util = clamp(p.CPUUtilPct*0.7+5*hashNormal(stream, int64(i)), 0, 100)
			rss = 34000
			readMB += p.ReadMBPerStep * stepsPerSample * 0.5
		case phaseCheckpoint:
			util = clamp(25+5*hashNormal(stream, int64(i)), 0, 100)
			rss = 34000
			writeMB += 800 * CPUSampleDT / math.Max(p.CkptTime, 1)
		}

		// Turbo behaviour: lighter load boosts clocks.
		freq := 3.9 - 1.2*util/100 + 0.05*hashNormal(freqStream, int64(i))
		cpuTime += util / 100 * CPUSampleDT * CoresPerNode
		pages += util * 120 * CPUSampleDT / 100

		row := out.Row(i)
		row[CPUFrequency] = math.Round(freq * 1000) // MHz
		row[CPUTime] = math.Round(cpuTime*100) / 100
		row[CPUUtilization] = math.Round(util*10) / 10
		row[RSS] = math.Round(clamp(rss, 0, NodeRAMMiB))
		row[VMSize] = math.Round(clamp(rss*2.4+8000, 0, 2*NodeRAMMiB))
		row[Pages] = math.Round(pages)
		row[ReadMB] = math.Round(readMB*100) / 100
		row[WriteMB] = math.Round(writeMB*100) / 100
	}
	return out, nil
}
