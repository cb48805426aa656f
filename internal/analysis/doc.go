// Package analysis hosts the wccvet analyzer suite: custom static
// analyzers that machine-check the serving plane's correctness invariants
// — rules that previously lived only in tests, DESIGN.md prose and
// reviewer memory. One subpackage per invariant:
//
//   - lockscope: no potentially-blocking call (event publish, naked
//     channel send, time.Sleep, net I/O, log and log/slog records,
//     WaitGroup.Wait) while holding a data mutex; locks whose protocol
//     deliberately orders publishes under them are annotated
//     //wcc:coordlock at the field.
//   - hotpath: functions annotated //wcc:hotpath must stay free of
//     categorically-allocating calls (encoding/json, fmt, reflect, ...)
//     outside early-return guard blocks, and every annotation must be
//     pinned by a testing.AllocsPerRun == 0 gate in its package.
//   - stickyerr: a locally-constructed sticky-error decoder (any type
//     with an Err() error method, like internal/wire's Reader) whose
//     decoded values are consumed must have Err() checked on some path.
//   - boundedqueue: no unbounded data channels (make(chan T) without an
//     explicit capacity) in the push-plane and serving packages.
//   - nakedtime: functions annotated //wcc:tickpath take their clock
//     from the caller instead of calling time.Now/time.Sleep, keeping
//     the equivalence tests deterministic; Tick entry points in
//     fleet/shard must carry the annotation.
//
// The analyzers are built on golang.org/x/tools/go/analysis and run
// through cmd/wccvet (directly, or as a `go vet -vettool`). Each has
// positive and negative fixtures under its testdata/ tree, driven by the
// analyzertest subpackage, so weakening an analyzer fails tier-1 tests.
package analysis
