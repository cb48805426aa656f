// Package events is the push plane of the serving stack: a
// generation-aware event bus carrying the discrete moments polling smears
// — a job's classification changing, an open-set verdict rejecting a
// workload as unknown, the fleet drift score crossing a PSI band, a model
// hot-swap installing, a shard tick loop failing or recovering, and, in a
// cluster, a peer's liveness flipping or a rolling swap being prepared,
// committed, aborted or caught up with.
//
// The bus is built for untrusted, possibly stalled consumers:
//
//   - every subscriber owns a bounded queue (Subscribe's Buffer); Publish
//     never blocks on any of them;
//   - a subscriber whose queue is full when an event arrives is evicted —
//     its channel closes, its slot frees — so one stalled SSE reader can
//     never apply backpressure to tick write-back or leak its goroutine;
//   - events are stamped with a monotonically increasing sequence number
//     and the model generation that produced them: swap events advance the
//     generation, so a consumer can tell whether a verdict was scored by
//     the model before or after a hot-swap without any extra round trip.
//
// Publishing is cheap and safe from any goroutine, including under the
// fleet's tick and swap locks. A nil *Bus is a valid no-op sink, so
// emitters need no "events enabled?" branches — and the equivalence tests
// pin that an events-enabled fleet produces bit-identical predictions to
// an events-disabled one.
package events

import (
	"sync"
	"time"
)

// Type names one kind of event on the bus.
type Type string

const (
	// TypePrediction fires when a job's classified class changes (including
	// its first classification). Re-scores that keep the same class are not
	// events — polling GET /v1/jobs covers steady state.
	TypePrediction Type = "prediction"
	// TypeUnknown fires when a job's open-set verdict transitions to
	// rejected: the fleet has decided this workload matches no trained
	// family.
	TypeUnknown Type = "unknown"
	// TypeDrift fires when the fleet drift score (max per-sensor PSI)
	// crosses a band boundary — stable / moderate / major — in either
	// direction.
	TypeDrift Type = "drift"
	// TypeSwap fires when a model hot-swap installs fleet-wide. It advances
	// the bus generation: events with a higher Gen were produced by the new
	// model.
	TypeSwap Type = "swap"
	// TypeShardHealth fires when a serving tick loop's error state changes:
	// a shard's tick failing after successes, or recovering after a
	// failure.
	TypeShardHealth Type = "shard_health"
	// TypeMembership fires when a cluster node's liveness view of a peer
	// changes: a peer marked dead after missed heartbeats, or alive again
	// after rejoining (see internal/cluster).
	TypeMembership Type = "membership"
	// TypeClusterSwap fires as a rolling fleet-wide swap advances through
	// its phases — prepared, committed, aborted — on the orchestrating node,
	// and when a node that missed a generation has caught up by itself
	// ("caught-up"). Per-node model installs still publish TypeSwap on
	// each node's own bus; TypeClusterSwap narrates the cross-node protocol.
	TypeClusterSwap Type = "cluster_swap"
	// TypeAdapt fires as the continual-learning flywheel advances through
	// its lifecycle (see internal/adapt): a candidate model built from
	// clustered unknown traffic ("candidate"), shadow scoring starting
	// ("shadow"), the candidate promoted into serving ("promoted"), or the
	// attempt abandoned ("aborted"). The promotion itself still installs
	// through the swap path and publishes TypeSwap.
	TypeAdapt Type = "adapt"
)

// Types lists every event type the serving plane emits, in the order the
// documentation presents them.
func Types() []Type {
	return []Type{TypePrediction, TypeUnknown, TypeDrift, TypeSwap, TypeShardHealth, TypeMembership, TypeClusterSwap, TypeAdapt}
}

// Event is one moment on the bus. Seq, Gen, Type and TimeUnixMS are always
// set; the remaining fields depend on Type and marshal only when present,
// so the SSE wire form stays lean.
type Event struct {
	// Seq is the bus-wide publication sequence number, strictly increasing.
	Seq uint64 `json:"seq"`
	// Gen is the model generation the event belongs to; swap events carry
	// the generation they installed.
	Gen uint64 `json:"gen"`
	// Type discriminates the payload fields below.
	Type Type `json:"type"`
	// TimeUnixMS is the publication time (stamped by the bus when zero).
	TimeUnixMS int64 `json:"time_unix_ms"`

	// Job, Class, PrevClass and Probability describe prediction and
	// unknown events. PrevClass is absent on a job's first classification.
	Job         *int    `json:"job,omitempty"`
	Class       *int    `json:"class,omitempty"`
	PrevClass   *int    `json:"prev_class,omitempty"`
	Probability float64 `json:"probability,omitempty"`
	// FeatDist is the unknown event's feature-space distance from the
	// training distribution — the score that carries open-set recall.
	FeatDist float64 `json:"feature_distance,omitempty"`

	// Score, Band and PrevBand describe drift events: the fleet PSI score
	// and the band it moved between.
	Score    float64 `json:"score,omitempty"`
	Band     string  `json:"band,omitempty"`
	PrevBand string  `json:"prev_band,omitempty"`

	// Model names the swapped-in classifier on swap events.
	Model string `json:"model,omitempty"`

	// Shard, Error and Healthy describe shard-health events; Error is empty
	// on recovery. Healthy doubles as the liveness verdict on membership
	// events.
	Shard   *int   `json:"shard,omitempty"`
	Error   string `json:"error,omitempty"`
	Healthy *bool  `json:"healthy,omitempty"`

	// Node and Phase describe cluster events: Node is the peer a membership
	// event speaks about (or the node a cluster-swap phase just covered),
	// Phase is the rolling-swap phase reached ("prepared", "committed",
	// "aborted", "caught-up"). Adapt events reuse Phase for the lifecycle
	// step reached ("candidate", "shadow", "promoted", "aborted") and Model
	// for the candidate artifact description.
	Node  *int   `json:"node,omitempty"`
	Phase string `json:"phase,omitempty"`
}

// Sink accepts published events. *Bus implements it; emitters hold a Sink
// so tests can capture emission without a bus.
type Sink interface {
	Publish(Event)
}

// Stats is a point-in-time read of the bus counters.
type Stats struct {
	// Published counts events accepted by Publish.
	Published uint64
	// Dropped counts events a subscriber missed because its queue was full
	// at publication (each such event also evicts that subscriber).
	Dropped uint64
	// Evicted counts subscribers removed for falling behind.
	Evicted uint64
	// Subscribers is the current live subscription count.
	Subscribers int
}

// Bus fans published events out to subscribers. The zero value is not
// usable; construct with NewBus. A nil *Bus is a valid Sink that discards
// everything.
type Bus struct {
	mu        sync.Mutex
	subs      map[*Subscription]struct{}
	seq       uint64
	gen       uint64
	published uint64
	dropped   uint64
	evicted   uint64
}

// NewBus returns an empty bus at generation 0.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscription]struct{})}
}

// Publish stamps the event (sequence, generation, time when unset) and
// delivers it to every matching subscriber without blocking: a subscriber
// whose queue is full is evicted on the spot. Safe from any goroutine; a
// nil receiver discards the event.
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	if e.TimeUnixMS == 0 {
		e.TimeUnixMS = time.Now().UnixMilli()
	}
	b.mu.Lock()
	b.seq++
	if e.Type == TypeSwap {
		b.gen++
	}
	e.Seq = b.seq
	e.Gen = b.gen
	b.published++
	for sub := range b.subs {
		if !sub.matches(e) {
			continue
		}
		select {
		case sub.ch <- e:
		default:
			// The subscriber fell behind its bounded queue: evict it so a
			// stalled reader can never block the publisher. Closing under
			// b.mu is safe — sends only happen here, under the same lock.
			delete(b.subs, sub)
			close(sub.ch)
			sub.evicted = true
			b.dropped++
			b.evicted++
		}
	}
	b.mu.Unlock()
}

// Gen returns the current model generation (the number of swap events
// published so far).
func (b *Bus) Gen() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}

// Stats snapshots the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Published:   b.published,
		Dropped:     b.dropped,
		Evicted:     b.evicted,
		Subscribers: len(b.subs),
	}
}

// SubOptions filters and sizes one subscription.
type SubOptions struct {
	// Buffer bounds the subscriber's queue (default 256). When the queue is
	// full at publication the subscriber is evicted.
	Buffer int
	// Types restricts delivery to these event types; empty means all.
	Types []Type
	// Job, when non-nil, restricts job-scoped events (prediction, unknown)
	// to this job ID; events without a job (drift, swap, shard health)
	// still deliver, so a job-scoped dashboard keeps its fleet context.
	Job *int
}

// Subscription is one subscriber's handle: receive from Events until it
// closes, then check Evicted to distinguish a slow-client eviction from an
// orderly Close.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	types   map[Type]struct{} // nil = all
	job     *int
	evicted bool // guarded by bus.mu until the channel closes
}

// Subscribe registers a new subscriber and returns its handle. The caller
// must either drain Events promptly or accept eviction; Close releases the
// slot early.
func (b *Bus) Subscribe(opts SubOptions) *Subscription {
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	sub := &Subscription{bus: b, ch: make(chan Event, opts.Buffer), job: opts.Job}
	if len(opts.Types) > 0 {
		sub.types = make(map[Type]struct{}, len(opts.Types))
		for _, t := range opts.Types {
			sub.types[t] = struct{}{}
		}
	}
	b.mu.Lock()
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub
}

// Events is the subscriber's receive side. It closes on eviction or Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Evicted reports whether the bus removed this subscriber for falling
// behind. Meaningful once Events has closed.
func (s *Subscription) Evicted() bool {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.evicted
}

// Close unsubscribes and closes Events. Safe to call more than once, and
// safe concurrently with Publish; after an eviction it is a no-op.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	if _, ok := s.bus.subs[s]; ok {
		delete(s.bus.subs, s)
		close(s.ch)
	}
	s.bus.mu.Unlock()
}

// matches reports whether the event passes the subscription's filters;
// callers hold bus.mu.
func (s *Subscription) matches(e Event) bool {
	if s.types != nil {
		if _, ok := s.types[e.Type]; !ok {
			return false
		}
	}
	if s.job != nil && e.Job != nil && *e.Job != *s.job {
		return false
	}
	return true
}

// Intp is a small helper for building job-scoped events: it returns a
// pointer to v, the form the Event's optional fields take.
func Intp(v int) *int { return &v }

// Boolp returns a pointer to v, for Event.Healthy.
func Boolp(v bool) *bool { return &v }
