// Package netem is a discrete-event network emulator used as the substrate
// for every CellBricks emulation experiment. It provides a virtual clock,
// an event queue, and a packet-level network model with links that impose
// propagation delay, jitter, random loss, bandwidth serialization, and
// operator rate-limiting policies (token-bucket shaping with a
// time-of-day rate schedule, modelling the bimodal T-Mobile behaviour the
// paper measures in Appendix A).
//
// All time in the simulator is virtual: experiments that span hundreds of
// emulated seconds complete in milliseconds of wall time and are fully
// deterministic for a given seed.
//
// A Sim is single-goroutine by design; scale-out runs many independent
// Sims concurrently (see testbed.Runner), which is safe because a Sim
// shares no mutable state with any other.
package netem

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// Delivery fast path: when dst is non-nil the event hands pkt to the
	// destination's current handler instead of calling fn. Such events
	// are created only inside Send, never escape to callers, and are
	// recycled through the sim's free list once popped.
	pkt       *Packet
	dst       *handlerRef
	tm        *Timer // non-nil for a Timer's resident event (see timer.go)
	cancelled bool
	next      *Event // free-list link while a delivery event is pooled
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancelled = true
	}
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e != nil && e.cancelled }

// handlerRef is the mutable binding from an endpoint identifier to its
// receive handler. Delivery events capture the ref at send time, so the
// per-packet lookup happens once on Send instead of once more on
// delivery; Register/Unregister swap fn in place.
type handlerRef struct {
	fn func(*Packet)
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Endpoint is a dense integer handle for an endpoint identifier string,
// interned per Sim. Zero means "unresolved"; valid handles start at 1.
// Handles are only meaningful within the Sim that issued them.
type Endpoint int32

// SchedulerKind selects a Sim's event-queue implementation.
type SchedulerKind int32

const (
	// SchedulerWheel is the hierarchical timing wheel (default): O(1)
	// schedule/pop for the short-horizon delivery events that dominate
	// emulation runs, with an overflow heap for far-future timers.
	SchedulerWheel SchedulerKind = iota
	// SchedulerHeap is the reference container/heap binary heap. Firing
	// order is identical to the wheel; it exists as the determinism oracle
	// and an escape hatch.
	SchedulerHeap
)

var defaultScheduler atomic.Int32 // SchedulerKind; wheel (0) by default

// SetDefaultScheduler changes the scheduler NewSim uses for subsequently
// constructed simulators. Both kinds fire events in identical (at, seq)
// order, so experiment output is unaffected; this exists for A/B
// determinism tests and benchmarks.
func SetDefaultScheduler(k SchedulerKind) { defaultScheduler.Store(int32(k)) }

// DefaultScheduler reports the kind NewSim currently uses.
func DefaultScheduler() SchedulerKind { return SchedulerKind(defaultScheduler.Load()) }

// pathEntry is an installed link plus the interned handle of its
// lexicographically-smaller endpoint name, which fixes the link's A->B
// direction (shaper and serialization state are per-direction). A non-nil
// remote marks the local half of a cross-shard link (see World): Send
// applies the full link model here, then parks the packet in the world's
// mailbox instead of the local event queue.
type pathEntry struct {
	link   *Link
	aEP    Endpoint
	remote *remoteRoute
}

// packEPs builds the order-insensitive path-map key for a pair of
// endpoint handles.
func packEPs(x, y Endpoint) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

// cacheLinePad is the distance kept between state a shard writes per event
// and any other object: two 64-byte lines, because the adjacent-line
// prefetcher fetches lines in pairs. A World allocates its shards back to
// back, so without it one shard's counters share a line with the next
// shard's clock and each event on either core steals the line from the
// other (DESIGN.md §2.2).
const cacheLinePad = 128

type cachePad [cacheLinePad]byte

// poolSlab is how many delivery events or pooled packets a Sim allocates at
// once when its free list runs dry.
const poolSlab = 16

// Sim is a discrete-event simulator with a virtual clock. The zero value is
// not usable; construct with NewSim.
type Sim struct {
	_ cachePad // keeps the fields below off other objects' lines; see cacheLinePad

	now   time.Duration
	sched scheduler
	seq   uint64
	rng   *rand.Rand

	// Endpoint interning: names resolve once to dense handles; the
	// per-packet path indexes slices instead of hashing strings.
	eps      map[string]Endpoint
	epNames  []string      // handle-1 -> name
	handlers []*handlerRef // handle-1 -> receive handler binding

	paths map[uint64]*pathEntry

	// Single-entry path cache: bulk transfers hammer one (src, dst) pair,
	// so most Sends skip the map lookup entirely. Invalidated on any
	// Connect/Disconnect.
	lastKey  uint64
	lastPath *pathEntry

	// free recycles the internal delivery events, the dominant allocation
	// of a packet-heavy run. Caller-visible events (from At/After) are
	// never pooled: callers may hold them for Cancel long after firing.
	// The list is threaded through Event.next and refilled poolSlab events
	// at a time, so it owns no slice to grow.
	free *Event

	// pktFree recycles pooled Packets (see GetPacket) the same way; together
	// with the event free list this makes the steady-state send path
	// allocation-free.
	pktFree *Packet

	// mtrLocal batches this Sim's telemetry; see metrics.go.
	mtrLocal simMetrics

	// sharded marks a Sim owned by a multi-shard World: the per-Sim
	// queue-depth gauge is suppressed (the World publishes the merged
	// depth instead).
	sharded bool

	_ cachePad
}

// NewSim returns a simulator seeded deterministically, using the process
// default scheduler (the timing wheel unless SetDefaultScheduler changed it).
func NewSim(seed int64) *Sim {
	return NewSimScheduler(seed, DefaultScheduler())
}

// NewSimScheduler returns a simulator with an explicit scheduler kind.
// Output per seed is byte-identical across kinds.
func NewSimScheduler(seed int64, kind SchedulerKind) *Sim {
	var sched scheduler
	if kind == SchedulerHeap {
		sched = &heapSched{}
	} else {
		sched = newTimingWheel()
	}
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		sched: sched,
		eps:   make(map[string]Endpoint),
		paths: make(map[uint64]*pathEntry),
	}
}

// Now returns the current virtual time (duration since simulation start).
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Endpoint interns an endpoint identifier, returning its dense handle.
// Repeated calls with the same name return the same handle.
func (s *Sim) Endpoint(name string) Endpoint {
	if ep, ok := s.eps[name]; ok {
		return ep
	}
	s.epNames = append(s.epNames, name)
	s.handlers = append(s.handlers, &handlerRef{})
	ep := Endpoint(len(s.epNames))
	s.eps[name] = ep
	return ep
}

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// that is always a logic error in a discrete-event model.
func (s *Sim) At(t time.Duration, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("netem: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.sched.push(e)
	return e
}

// After schedules fn d from now.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// scheduleDelivery enqueues the internal per-packet delivery event, drawn
// from the free list.
func (s *Sim) scheduleDelivery(t time.Duration, pkt *Packet, dst *handlerRef) {
	s.seq++
	e := s.free
	if e == nil {
		slab := new([poolSlab]Event)
		for i := range poolSlab - 1 {
			slab[i].next = &slab[i+1]
		}
		e = &slab[0]
	}
	s.free = e.next
	e.at, e.seq, e.pkt, e.dst, e.next = t, s.seq, pkt, dst, nil
	s.sched.push(e)
}

// connectRemote installs the local half of a cross-shard link: the same
// path entry Connect builds, tagged with the mailbox route. Only World
// calls this, once per direction with a per-side copy of the link.
func (s *Sim) connectRemote(a, b string, l *Link, r *remoteRoute) {
	epA, epB := s.Endpoint(a), s.Endpoint(b)
	aEP := epA
	if b < a {
		aEP = epB
	}
	s.paths[packEPs(epA, epB)] = &pathEntry{link: l, aEP: aEP, remote: r}
	s.lastPath = nil
}

// inject schedules the delivery of a cross-shard packet that already
// carries its full arrival time (every delay term was applied by the
// sending shard). Called by World.exchange at a window barrier, in
// canonical merge order; arrivals before the shard's clock would mean the
// lookahead bound was violated, which is a World bug worth crashing on.
func (s *Sim) inject(at time.Duration, src, dst string, size int, payload any) {
	if at < s.now {
		panic(fmt.Sprintf("netem: cross-shard packet for %q arrives at %v before shard time %v (lookahead violation)", dst, at, s.now))
	}
	dep := s.Endpoint(dst)
	pkt := s.GetPacket()
	pkt.Src, pkt.Dst = src, dst
	pkt.SrcEP, pkt.DstEP = s.Endpoint(src), dep
	pkt.Size, pkt.Payload = size, payload
	pkt.inflight = true
	s.scheduleDelivery(at, pkt, s.handlers[dep-1])
}

// release returns a popped delivery event to the free list. Events that
// were handed to a caller (fn-based) are left for the GC instead.
func (s *Sim) release(e *Event) {
	if e.dst == nil {
		return
	}
	*e = Event{next: s.free}
	s.free = e
}

// GetPacket returns a Packet from the Sim's pool (or a fresh one). Pooled
// packets are recycled automatically after their delivery handler returns,
// so neither the sender nor the receiver may retain one past the handler;
// copy out what you need. A pooled packet that Send rejects (returns
// false) is still owned by the caller — return it with PutPacket.
func (s *Sim) GetPacket() *Packet {
	p := s.pktFree
	if p == nil {
		slab := new([poolSlab]Packet)
		for i := range poolSlab - 1 {
			slab[i].next = &slab[i+1]
		}
		p = &slab[0]
	}
	s.pktFree = p.next
	p.next, p.pooled = nil, true
	return p
}

// PutPacket returns a pooled packet for reuse, zeroing it. Packets not
// obtained from GetPacket, and packets currently in flight, are ignored. A
// packet in the pool is not pooled until GetPacket hands it out again, so
// putting it twice is a no-op.
func (s *Sim) PutPacket(p *Packet) {
	if p == nil || !p.pooled || p.inflight {
		return
	}
	*p = Packet{next: s.pktFree}
	s.pktFree = p
}

// Step fires the next pending event. It reports false when the queue is
// empty.
func (s *Sim) Step() bool {
	for {
		e := s.sched.pop()
		if e == nil {
			return false
		}
		if e.stale() {
			s.discard(e)
			continue
		}
		s.now = e.at
		if e.dst != nil {
			pkt, ref := e.pkt, e.dst
			s.release(e) // recycle before the handler runs: pkt/ref are copied out
			if pkt.pooled {
				pkt.inflight = false
			}
			if ref.fn != nil {
				s.mtrLocal.delivered++
				if s.mtrLocal.tick++; s.mtrLocal.tick&(flushEvery-1) == 0 {
					s.FlushMetrics()
				}
				ref.fn(pkt)
			}
			// Auto-recycle unless the handler re-sent the same packet
			// (inflight again) or it was never pooled.
			s.PutPacket(pkt)
		} else if t := e.tm; t != nil {
			t.queued, t.armed = false, false
			t.fn()
		} else {
			e.fn()
		}
		return true
	}
}

// Run processes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
	s.FlushMetrics()
}

// RunUntil processes events with timestamps <= t and then advances the
// clock to exactly t.
func (s *Sim) RunUntil(t time.Duration) {
	for {
		next := s.peek()
		if next == nil || next.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
	s.FlushMetrics()
}

// peek returns the next live event without firing it, or nil when the
// queue is drained, discarding stale events at the top so RunUntil's bound
// check sees a live one.
func (s *Sim) peek() *Event {
	for {
		e := s.sched.peek()
		if e == nil || !e.stale() {
			return e
		}
		s.sched.pop()
		s.discard(e)
	}
}

// stale reports whether e must be skipped at the queue head without
// advancing the clock: it was cancelled, or it is a Timer's resident event
// and the timer has been stopped or re-armed since the event was queued.
func (e *Event) stale() bool {
	return e.cancelled || e.tm != nil && !(e.tm.armed && e.tm.seq == e.seq)
}

// discard disposes of a stale event popped from the queue. A timer's
// resident event goes back in at the live deadline if the timer is armed.
func (s *Sim) discard(e *Event) {
	if t := e.tm; t != nil {
		t.queued = false
		if t.armed {
			t.enqueue()
		}
		return
	}
	s.release(e)
}

// Pending reports the number of scheduled events, including cancelled
// one-shots and the resident event of a stopped Timer.
func (s *Sim) Pending() int { return s.sched.len() }
