package fleet

import (
	"testing"

	"repro/internal/events"
	"repro/internal/servetest"
	"repro/internal/trace"
)

// BenchmarkTick times one partition's steady tick in the configuration
// wccserve runs (drift, events, trace and an observer attached) at the
// shapes of the benchmark's two in-process workloads. full is tick-full's
// batch height: 250 jobs, each one sample further along, scored per tick,
// reported per row. sparse is tick-sparse's: 10 000 resident jobs, 2 of
// them dirtied per tick, taking turns through the registry, reported per
// tick. Each job re-sends its first window's samples in order, so every
// sample lands on the ring slot it left and the class holds: steady state
// publishes no transition events. Every job has been scored before the
// clock starts, so B/op and allocs/op are what a steady tick costs in
// garbage, whatever its height. The model is the small test fixture, so
// write-back and collect weigh more here than behind a Table V forest. It
// loops over b.N, not b.Loop, because it stops the clock inside its loop,
// which b.Loop does not support.
func BenchmarkTick(b *testing.B) {
	for _, bc := range []struct {
		name            string
		resident, dirty int
		perRow          bool
	}{
		{"full", 250, 250, true},
		{"sparse", 10000, 2, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			scaler, model := servetest.Fixture(b)
			m, err := New(Config{Window: servetest.Window, Sensors: servetest.Sensors, Scaler: scaler, Model: model,
				Drift: servetest.Calibration(b, 31, 400)})
			if err != nil {
				b.Fatal(err)
			}
			m.SetTraceRecorder(trace.NewRecorder())
			m.SetEventSink(events.NewBus())
			m.SetAdaptObserver(discard{})
			stream := make([][][]float64, bc.resident)
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
			sent := 0
			for range b.N {
				b.StopTimer()
				for range bc.dirty {
					j := sent % bc.resident
					if err := m.Ingest(j, stream[j][(sent/bc.resident)%servetest.Window]); err != nil {
						b.Fatal(err)
					}
					sent++
				}
				b.StartTimer()
				if st, err := m.Tick(); err != nil || st.Classified != bc.dirty {
					b.Fatalf("tick %+v, %v", st, err)
				}
			}
			per, unit := b.N, "ns/tick"
			if bc.perRow {
				per, unit = b.N*bc.dirty, "ns/row"
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(per), unit)
		})
	}
}
