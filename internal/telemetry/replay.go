package telemetry

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ReplaySample is one telemetry sample attributed to a job, as a fleet
// ingest path consumes it.
type ReplaySample struct {
	JobID int
	// Tick is the sample index within the replayed span (absolute job time
	// start + Tick·GPUSampleDT).
	Tick int
	// Values holds the NumGPUSensors readings in Table III order. The slice
	// aliases the replay's backing storage; callers must not modify it and
	// should copy if they retain it past the next call.
	Values []float64
}

// Replay interleaves the telemetry of many jobs into one time-ordered
// sample stream: tick t emits sample t for every job whose series is still
// live at t, in job order. It is the multi-job feed for fleet monitoring —
// the streaming analogue of the offline dataset builder.
//
// Each job's series is materialised once up front with a single GPUWindow
// call, so Next is just slicing rows; a Replay is not safe for concurrent
// use, but its samples may be fanned out to any number of ingest goroutines.
type Replay struct {
	jobs  []*Job
	data  []*mat.Matrix // per job, n×NumGPUSensors
	start float64
	tick  int
	cur   int // next job position within the current tick
	left  int // samples not yet emitted
}

// NewReplay prepares a replay over the jobs' telemetry between absolute job
// times start and horizon seconds (each job capped by its own duration).
// A non-zero start skips the class-agnostic startup phase, matching how the
// challenge's middle/random datasets sample mid-job windows. gpu selects
// which of each job's GPU series is streamed, clamped to the job's GPU
// count. Jobs too short for a single sample after start are skipped.
func NewReplay(jobs []*Job, gpu int, start, horizon float64) (*Replay, error) {
	if len(jobs) == 0 {
		return nil, errors.New("telemetry: replay needs at least one job")
	}
	for _, v := range []float64{start, horizon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("telemetry: replay span [%v, %v) is not finite", start, horizon)
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("telemetry: negative replay start %.2fs", start)
	}
	if horizon < start+GPUSampleDT {
		return nil, fmt.Errorf("telemetry: replay span [%.2fs, %.2fs) shorter than one sample", start, horizon)
	}
	r := &Replay{start: start}
	for _, j := range jobs {
		n := int(math.Floor((math.Min(horizon, j.Duration) - start) / GPUSampleDT))
		if n < 1 {
			continue
		}
		g := gpu
		if g < 0 {
			g = 0
		}
		if g >= j.NumGPUs {
			g = j.NumGPUs - 1
		}
		w, err := j.GPUWindow(g, start, n)
		if err != nil {
			return nil, err
		}
		r.jobs = append(r.jobs, j)
		r.data = append(r.data, w)
		r.left += n
	}
	if len(r.jobs) == 0 {
		return nil, errors.New("telemetry: no job long enough to replay")
	}
	return r, nil
}

// NumJobs returns how many jobs contribute samples.
func (r *Replay) NumJobs() int { return len(r.jobs) }

// Next returns the next sample in time order and false once the stream is
// exhausted. Jobs whose series ended simply stop contributing; the remaining
// jobs keep streaming.
func (r *Replay) Next() (ReplaySample, bool) {
	for r.left > 0 {
		if r.cur >= len(r.jobs) {
			r.cur = 0
			r.tick++
		}
		i := r.cur
		r.cur++
		if r.tick >= r.data[i].Rows {
			continue
		}
		r.left--
		return ReplaySample{JobID: r.jobs[i].ID, Tick: r.tick, Values: r.data[i].Row(r.tick)}, true
	}
	return ReplaySample{}, false
}
