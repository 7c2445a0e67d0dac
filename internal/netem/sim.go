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
	"math"
	"math/rand"
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
	pkt *Packet
	dst *handlerRef
	// tm is non-nil for a Timer's resident event, and for one the timer
	// orphaned by moving its deadline earlier (see timer.go).
	tm        *Timer
	cancelled bool
	// next has three uses that never overlap: the link into its wheel slot
	// while the wheel holds it, into its path's link queue while a delivery
	// waits there, and into the Sim's free list while it is pooled.
	next *Event
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancelled = true
	}
}

// handlerRef is the mutable binding from an endpoint identifier to its
// receive handler. Delivery events capture the ref at send time, so the
// per-packet lookup happens once on Send instead of once more on
// delivery; Register/Unregister swap fn in place.
type handlerRef struct {
	fn func(*Packet)
}

// Endpoint is a dense integer handle for an endpoint identifier string,
// interned per Sim. Zero means "unresolved"; valid handles start at 1.
// Handles are only meaningful within the Sim that issued them.
type Endpoint int32

// pathEntry is an installed link plus the interned handle of its
// lexicographically-smaller endpoint name, which fixes the link's A->B
// direction (shaper and serialization state are per-direction). A non-nil
// remote marks the local half of a cross-shard link (see World): Send
// applies the full link model here, then parks the packet in the world's
// mailbox instead of the local event queue. q holds each direction's
// deliveries in flight, A->B first (see linkQueue).
type pathEntry struct {
	link   *Link
	aEP    Endpoint
	remote *remoteRoute
	q      [2]linkQueue
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
	sched *timingWheel
	seq   uint64
	rng   *rand.Rand

	// lq is a min-heap of the non-empty link queues, keyed by their heads;
	// nlq is its length. It sits beside the wheel: stepBy fires whichever
	// head comes first. See linkHeapCap for why it is bounded.
	lq  [linkHeapCap]queueHead
	nlq int

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
	// of a packet-heavy run, and the residents Timers orphan. Caller-visible
	// events (from At/After) are never pooled: callers may hold them for
	// Cancel long after firing. The list is threaded through Event.next and
	// refilled poolSlab events at a time, so it owns no slice to grow.
	free *Event

	// pktFree recycles pooled Packets (see GetPacket) the same way; together
	// with the event free list this makes the steady-state send path
	// allocation-free.
	pktFree *Packet

	// mtrLocal batches this Sim's telemetry; see metrics.go.
	mtrLocal simMetrics

	_ cachePad
}

// NewSim returns a simulator seeded deterministically.
func NewSim(seed int64) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		sched: &timingWheel{},
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

// newEvent takes a zeroed event from the free list, refilling the list a
// slab at a time when it runs dry.
func (s *Sim) newEvent() *Event {
	e := s.free
	if e == nil {
		slab := new([poolSlab]Event)
		for i := range poolSlab - 1 {
			slab[i].next = &slab[i+1]
		}
		e = &slab[0]
	}
	s.free, e.next = e.next, nil
	return e
}

// scheduleDelivery enqueues the internal per-packet delivery event, drawn
// from the free list, on the link queue q: behind the deliveries already
// there, or as a new head if the heap has room. Anything else, and a
// delivery with no queue (nil q: a cross-shard inject), goes to the wheel.
func (s *Sim) scheduleDelivery(t time.Duration, pkt *Packet, dst *handlerRef, q *linkQueue) {
	s.seq++
	e := s.newEvent()
	e.at, e.seq, e.pkt, e.dst = t, s.seq, pkt, dst
	switch {
	case q == nil:
		s.sched.push(e)
	case q.tail != nil:
		q.tail.next, q.tail = e, e
	case s.nlq < linkHeapCap:
		q.head, q.tail = e, e
		s.pushQueue(q)
	default:
		s.sched.push(e)
	}
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
	s.scheduleDelivery(at, pkt, s.handlers[dep-1], nil)
}

// release returns a popped internal event — a delivery, or a resident a
// Timer orphaned — to the free list. Events that were handed to a caller
// (fn-based) are left for the GC instead.
func (s *Sim) release(e *Event) {
	if e.fn != nil {
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

// forever is a time bound no event is beyond.
const forever = time.Duration(math.MaxInt64)

// Step fires the next pending event. It reports false when the queue is
// empty.
func (s *Sim) Step() bool { return s.stepBy(forever) }

// stepBy fires the next live event due at or before t and reports whether
// there was one: the earlier in (at, seq) of the wheel's head and the first
// link queue's head, so the wheel advances once per event. Stale events met
// on the way are disposed of without advancing the clock. A link queue
// holds deliveries only, and a delivery is never stale.
func (s *Sim) stepBy(t time.Duration) bool {
	for {
		e := s.sched.advance()
		if s.nlq > 0 && (e == nil || s.lq[0].before(e)) {
			if s.lq[0].at > t {
				return false
			}
			e = s.popQueue()
		} else {
			if e == nil || e.at > t {
				return false
			}
			s.sched.take()
			if e.stale() {
				s.discard(e)
				continue
			}
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
	for s.stepBy(t) {
	}
	if t > s.now {
		s.now = t
	}
	s.FlushMetrics()
}

// stale reports whether e must be skipped at the queue head without
// advancing the clock: it was cancelled, or it carries a Timer that has
// been stopped or re-armed since the event was queued. Every resident a
// timer has orphaned is therefore stale.
func (e *Event) stale() bool {
	return e.cancelled || e.tm != nil && !(e.tm.armed && e.tm.seq == e.seq)
}

// discard disposes of a stale event popped from the queue. A timer's
// resident event goes back in at the live deadline if the timer is armed;
// an orphaned one is recycled.
func (s *Sim) discard(e *Event) {
	if t := e.tm; t != nil && e == t.ev {
		t.queued = false
		if t.armed {
			t.enqueue()
		}
		return
	}
	s.release(e)
}
