package fleet

import (
	"testing"

	"repro/internal/events"
	"repro/internal/servetest"
	"repro/internal/trace"
)

// BenchmarkTick times one partition's steady tick in the configuration
// wccserve runs (drift, events, trace and an observer attached) at
// tick-full's batch height: 250 jobs, each one sample further along, scored
// per tick. Each job re-sends its first window's samples in order, so every
// sample lands on the ring slot it left and the class holds: steady state
// publishes no transition events. Every job has been scored before the
// clock starts, so B/op and allocs/op are what a steady tick costs in
// garbage, whatever its height. The model is the small test fixture, so
// write-back and collect weigh more here than behind a Table V forest. It
// loops over b.N, not b.Loop, because it stops the clock inside its loop,
// which b.Loop does not support.
func BenchmarkTick(b *testing.B) {
	scaler, model := servetest.Fixture(b)
	m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
		Drift: servetest.Calibration(b, 31, 400)})
	if err != nil {
		b.Fatal(err)
	}
	m.SetTraceRecorder(trace.NewRecorder())
	m.SetEventSink(events.NewBus())
	m.SetAdaptObserver(discard{})
	const jobs = 250
	stream := make([][][]float64, jobs)
	for j := range stream {
		stream[j] = servetest.JobSamples(j, servetest.Window)
		for _, s := range stream[j] {
			if err := m.Ingest(j, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := m.Tick(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for next := range b.N {
		b.StopTimer()
		for j := range stream {
			if err := m.Ingest(j, stream[j][next%servetest.Window]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if st, err := m.Tick(); err != nil || st.Classified != jobs {
			b.Fatalf("tick %+v, %v", st, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/row")
}
