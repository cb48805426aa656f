// Package shard is the set of names the frozen benchmark (benchmark/) uses
// for the partitioned serving core; no other non-test package imports it.
// The core itself is fleet.Monitor: the partitions ("shards" — the only
// thing that word means in this repository), the per-partition tick loops'
// entry point TickShard, the fleet-wide atomic swap and the merged reads
// all live there, once. What this package adds is one default: New sizes
// the core to the machine (Shards = GOMAXPROCS) where a bare fleet.New
// means one partition — the same default server.NewCore applies.
//
// Its tests stay here, unchanged, as the proof that P partitions equal one
// monitor bit for bit: the same per-job streams through New(Shards: 4) and
// through fleet.New end in identical predictions, drift stats and events.
package shard

import (
	"runtime"

	"repro/internal/fleet"
)

// Core is the partitioned serving core.
type Core = fleet.Monitor

// Config sizes a Core; New defaults Shards to GOMAXPROCS.
type Config = fleet.Config

// New validates the configuration and builds an empty core with one
// partition per schedulable CPU unless cfg.Shards says otherwise.
func New(cfg Config) (*Core, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	return fleet.New(cfg)
}
