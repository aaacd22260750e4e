package serve

// The subscription hub: the Rescreener publishes each catalogue version's
// snapshot exactly once; the hub diffs it against the previous one and
// fans the fresh conjunctions out to per-object subscribers. Design
// constraints, in order:
//
//   - Publish must never block on a reader. Every subscriber owns a
//     bounded queue; a full queue evicts the subscriber (marked, closed,
//     removed) rather than stalling the screening loop. A consumer slower
//     than the rescreen cadence is wrong by construction — it can always
//     reconnect and re-read the current snapshot.
//   - Readers must never block a publish for long. Delivery is a
//     non-blocking channel send under the hub mutex; the diff key set is
//     built outside of it.
//   - Long-poll waiters ride the same publish signal: a channel closed and
//     replaced at every publish, so WaitVersion costs nothing while idle.

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Event is one conjunction pushed to a subscriber: a conjunction involving
// the subscribed object that entered the conjunction set at Version.
type Event struct {
	Version     uint64
	ProducedAt  time.Time
	Conjunction core.Conjunction
}

// Subscription errors.
var (
	// ErrHubClosed means the hub is draining for shutdown.
	ErrHubClosed = errors.New("serve: hub closed")
	// ErrHubFull means the concurrent-subscriber cap is reached.
	ErrHubFull = errors.New("serve: subscriber limit reached")
)

// HubConfig sizes the fan-out hub.
type HubConfig struct {
	// MaxSubscribers caps concurrent subscriptions (<= 0 selects 1024).
	MaxSubscribers int
	// Queue is the per-subscriber event buffer (<= 0 selects 64). A
	// subscriber whose queue overflows during a publish is evicted.
	Queue int
	// OnDeliver, when set, observes each delivered event's fan-out lag
	// (publish time to enqueue time). Must be fast and goroutine-safe.
	OnDeliver func(lag time.Duration)
}

func (c HubConfig) maxSubscribers() int {
	if c.MaxSubscribers <= 0 {
		return 1024
	}
	return c.MaxSubscribers
}

func (c HubConfig) queue() int {
	if c.Queue <= 0 {
		return 64
	}
	return c.Queue
}

// HubStats is a point-in-time snapshot of hub counters.
type HubStats struct {
	Subscribers int    // currently connected
	Published   uint64 // snapshots published
	Delivered   uint64 // events enqueued to subscribers
	Dropped     uint64 // events lost to slow-consumer eviction
	Evicted     uint64 // subscribers evicted for falling behind
}

// Hub owns the current snapshot and the subscriber set.
type Hub struct {
	cfg HubConfig
	cur atomic.Pointer[Snapshot]

	mu      sync.Mutex
	subs    map[int32]map[*Subscriber]struct{}
	nsubs   int
	closed  bool
	changed chan struct{} // closed and replaced on every publish; WaitVersion waits on it

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	evicted   atomic.Uint64
}

// NewHub returns a hub with no snapshot and no subscribers.
func NewHub(cfg HubConfig) *Hub {
	return &Hub{
		cfg:     cfg,
		subs:    make(map[int32]map[*Subscriber]struct{}),
		changed: make(chan struct{}),
	}
}

// Current returns the latest published snapshot, or nil before the first
// publish. Lock-free.
func (h *Hub) Current() *Snapshot { return h.cur.Load() }

// Stats returns the hub counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	n := h.nsubs
	h.mu.Unlock()
	return HubStats{
		Subscribers: n,
		Published:   h.published.Load(),
		Delivered:   h.delivered.Load(),
		Dropped:     h.dropped.Load(),
		Evicted:     h.evicted.Load(),
	}
}

// Publish installs next as the current snapshot, wakes long-poll waiters,
// and pushes the conjunctions that are new relative to the previous
// snapshot to matching subscribers. Call from one goroutine (the
// rescreen loop); readers need no coordination with it. After Close,
// Publish is a no-op: Current() never advances on a drained hub.
func (h *Hub) Publish(next *Snapshot) {
	if next == nil {
		return
	}
	prev := h.cur.Load()

	// The diff key set is the previous snapshot's conjunctions by value:
	// a retained prior conjunction is carried bit-identically through the
	// delta path, and a re-screened unchanged pair reproduces its values
	// deterministically, so value equality is exactly "nothing new here".
	// Built outside the hub lock; only the sends happen under it.
	var fresh []core.Conjunction
	if prev == nil || len(prev.Conjunctions) == 0 {
		fresh = next.Conjunctions
	} else {
		seen := make(map[core.Conjunction]struct{}, len(prev.Conjunctions))
		for _, c := range prev.Conjunctions {
			seen[c] = struct{}{}
		}
		for _, c := range next.Conjunctions {
			if _, ok := seen[c]; !ok {
				fresh = append(fresh, c)
			}
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		// A publish racing Close delivers nothing and must not advance
		// Current() on a drained hub, so the closed check precedes the swap.
		return
	}
	h.cur.Store(next)
	h.published.Add(1)
	close(h.changed)
	h.changed = make(chan struct{})
	if h.nsubs == 0 {
		return
	}
	for _, c := range fresh {
		h.deliverLocked(c.A, c, next)
		h.deliverLocked(c.B, c, next)
	}
}

// deliverLocked pushes one fresh conjunction to the subscribers of one of
// its objects, evicting any whose queue is full.
func (h *Hub) deliverLocked(object int32, c core.Conjunction, snap *Snapshot) {
	for sub := range h.subs[object] {
		if c.PCA > sub.maxKm {
			continue
		}
		select {
		case sub.ch <- Event{Version: snap.Version, ProducedAt: snap.ProducedAt, Conjunction: c}:
			h.delivered.Add(1)
			if h.cfg.OnDeliver != nil {
				h.cfg.OnDeliver(time.Since(snap.ProducedAt))
			}
		default:
			h.dropped.Add(1)
			h.evictLocked(sub, true)
		}
	}
}

// Subscribe registers interest in conjunctions involving object with
// PCA <= maxKm (maxKm <= 0 means no distance filter). The returned
// subscriber must be Closed when done.
func (h *Hub) Subscribe(object int32, maxKm float64) (*Subscriber, error) {
	if maxKm <= 0 {
		maxKm = math.Inf(1)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHubClosed
	}
	if h.nsubs >= h.cfg.maxSubscribers() {
		return nil, ErrHubFull
	}
	sub := &Subscriber{
		hub:    h,
		object: object,
		maxKm:  maxKm,
		ch:     make(chan Event, h.cfg.queue()),
	}
	set := h.subs[object]
	if set == nil {
		set = make(map[*Subscriber]struct{})
		h.subs[object] = set
	}
	set[sub] = struct{}{}
	h.nsubs++
	return sub, nil
}

// evictLocked removes sub and closes its channel; evicted marks a
// slow-consumer eviction (as opposed to a drain or client close).
func (h *Hub) evictLocked(sub *Subscriber, evicted bool) {
	set := h.subs[sub.object]
	if _, ok := set[sub]; !ok {
		return // already removed
	}
	delete(set, sub)
	if len(set) == 0 {
		delete(h.subs, sub.object)
	}
	h.nsubs--
	if evicted {
		sub.evicted.Store(true)
		h.evicted.Add(1)
	}
	close(sub.ch)
}

// Close drains the hub: every subscriber channel is closed (readers see
// channel close with Evicted() false), further Subscribes fail with
// ErrHubClosed, and long-poll waiters wake. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, set := range h.subs {
		for sub := range set {
			h.nsubs--
			close(sub.ch)
		}
	}
	h.subs = make(map[int32]map[*Subscriber]struct{})
	close(h.changed)
}

// WaitVersion blocks until a snapshot newer than since is published,
// returning it. On context expiry or hub close it returns the latest
// snapshot (possibly nil) and the reason (ctx.Err() or ErrHubClosed) —
// the long-poll handler turns both into an empty-but-valid reply.
func (h *Hub) WaitVersion(ctx context.Context, since uint64) (*Snapshot, error) {
	for {
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return h.Current(), ErrHubClosed
		}
		ch := h.changed
		h.mu.Unlock()
		// Check Current only after capturing ch: Publish installs the
		// snapshot and closes changed inside one critical section, so a
		// publish that lands after this load closes the ch we hold (the
		// select wakes), and one that landed before is visible here —
		// no window where a satisfying snapshot exists but the wait
		// sleeps until the next publish.
		if snap := h.Current(); snap != nil && snap.Version > since {
			return snap, nil
		}
		select {
		case <-ctx.Done():
			return h.Current(), ctx.Err()
		case <-ch:
		}
	}
}

// Subscriber is one registered event consumer.
type Subscriber struct {
	hub     *Hub
	object  int32
	maxKm   float64
	ch      chan Event
	evicted atomic.Bool
}

// Events is the subscriber's queue. It is closed when the subscriber is
// evicted (Evicted() true), the hub drains, or Close is called.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Object returns the subscribed object ID.
func (s *Subscriber) Object() int32 { return s.object }

// Evicted reports whether the hub dropped this subscriber for falling
// behind.
func (s *Subscriber) Evicted() bool { return s.evicted.Load() }

// Close unsubscribes. Safe to call after eviction or hub close.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return // Close already closed every channel
	}
	h.evictLocked(s, false)
}
