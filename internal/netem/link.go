package netem

import (
	"time"
)

// Packet is the unit of transfer in the emulator. Payload is opaque to the
// network; Size (bytes, including notional headers) is what the link-level
// serialization and shaping act on.
//
// SrcEP/DstEP are the interned handles for Src/Dst. Senders on a hot path
// may set the handles (from Sim.Endpoint) and leave the strings empty:
// Send fills the strings back in from the interning table without hashing.
// Conversely, a packet with only strings set gets its handles resolved on
// first Send. Handles are per-Sim — never move a resolved Packet between
// simulators.
type Packet struct {
	Src, Dst     string   // IP-like endpoint identifiers
	SrcEP, DstEP Endpoint // interned handles (0 = unresolved)
	Size         int      // wire size in bytes
	Payload      any

	pooled   bool    // obtained from Sim.GetPacket; recycled after delivery
	inflight bool    // scheduled for delivery; guards against premature reuse
	next     *Packet // free-list link while in the Sim's pool
}

// RateFunc returns the shaping rate in bits/second at virtual time t.
// A nil RateFunc means "unshaped".
type RateFunc func(t time.Duration) float64

// Shaper models an operator bottleneck: a token-bucket policer whose rate
// may vary with (virtual) time of day, with a finite drop-tail queue. This
// reproduces the bimodal day/night throughput the paper measures on
// T-Mobile (Appendix A).
//
// Queue-bound precedence: a nonzero MaxQueueTime (sojourn bound) always
// wins over MaxQueueBytes; the byte bound applies only when MaxQueueTime
// is zero. NewShaper configures the byte bound (with a 256 KB default),
// NewShaperSojourn the time bound — a struct literal can set either
// directly, but note that a literal with both fields zero is a burst-only
// policer: no queueing beyond the bucket credit (no default is applied
// outside the constructors). Set the fields before the first packet: the
// terms admit derives from them are worked out once per rate.
type Shaper struct {
	Rate        RateFunc
	BucketBytes float64 // burst allowance
	// MaxQueueBytes bounds the queue in bytes (used when MaxQueueTime is
	// zero).
	MaxQueueBytes int
	// MaxQueueTime bounds the queue by sojourn time instead — the
	// behaviour of deployed AQM and a bound that self-scales when the
	// policed rate varies with time of day. Takes precedence over
	// MaxQueueBytes when nonzero.
	MaxQueueTime time.Duration

	busyUntil time.Duration // virtual clock: when the policed wire frees up

	// The rate terms of the schedule's last answer (lastRate; 0 before the
	// first packet). A schedule changes its answer far less often than
	// admit runs, so admit works them out again only when it does.
	lastRate     float64
	bytesPerSec  float64
	burstTime    time.Duration
	maxQueueTime time.Duration
}

// NewShaper builds a byte-bounded shaper with the given rate schedule.
// burst and queue are in bytes; sensible defaults (32 KB burst, 256 KB
// queue) are applied when zero. For a sojourn-time queue bound use
// NewShaperSojourn.
func NewShaper(rate RateFunc, burstBytes, queueBytes int) *Shaper {
	if burstBytes <= 0 {
		burstBytes = 32 * 1024
	}
	if queueBytes <= 0 {
		queueBytes = 256 * 1024
	}
	return &Shaper{
		Rate:          rate,
		BucketBytes:   float64(burstBytes),
		MaxQueueBytes: queueBytes,
	}
}

// NewShaperSojourn builds a shaper whose queue is bounded by sojourn time
// (the AQM-style bound): a packet that would wait longer than maxQueue is
// dropped. The same 32 KB burst default applies; maxQueue <= 0 selects
// 100 ms. The sojourn bound takes precedence, so MaxQueueBytes is left
// zero here and ignored by admit.
func NewShaperSojourn(rate RateFunc, burstBytes int, maxQueue time.Duration) *Shaper {
	if burstBytes <= 0 {
		burstBytes = 32 * 1024
	}
	if maxQueue <= 0 {
		maxQueue = 100 * time.Millisecond
	}
	return &Shaper{
		Rate:         rate,
		BucketBytes:  float64(burstBytes),
		MaxQueueTime: maxQueue,
	}
}

// admit decides the extra queueing delay a packet experiences at the
// shaper, or reports drop=true when the queue is full. It mutates shaper
// state, so call exactly once per packet in arrival order.
//
// The implementation is a virtual-clock shaper: busyUntil tracks when the
// policed "wire" next frees up; a packet's delay is its finish time minus
// now. Idle periods earn at most BucketBytes of burst credit.
func (sh *Shaper) admit(now time.Duration, size int) (delay time.Duration, drop bool) {
	if sh == nil || sh.Rate == nil {
		return 0, false
	}
	rate := sh.Rate(now) // bits per second
	if rate <= 0 {
		return 0, true
	}
	if rate != sh.lastRate {
		sh.setRate(rate)
	}
	if sh.busyUntil < now-sh.burstTime {
		sh.busyUntil = now - sh.burstTime
	}
	if sh.busyUntil-now > sh.maxQueueTime {
		return 0, true
	}

	txTime := time.Duration(float64(size) / sh.bytesPerSec * float64(time.Second))
	sh.busyUntil += txTime
	if sh.busyUntil <= now {
		return 0, false
	}
	return sh.busyUntil - now, false
}

// setRate works out admit's terms at a policed rate in bits per second.
func (sh *Shaper) setRate(rate float64) {
	sh.lastRate, sh.bytesPerSec = rate, rate/8
	// Burst credit: after idling, the virtual clock may lag `now` by at
	// most the time it takes to send BucketBytes at the policed rate.
	sh.burstTime = time.Duration(sh.BucketBytes / sh.bytesPerSec * float64(time.Second))
	// Drop bound expressed as queued time: the sojourn bound when set,
	// else the byte bound converted at this rate.
	sh.maxQueueTime = sh.MaxQueueTime
	if sh.maxQueueTime == 0 {
		sh.maxQueueTime = time.Duration(float64(sh.MaxQueueBytes) / sh.bytesPerSec * float64(time.Second))
	}
}

// Link is a bidirectional path segment between two endpoint identifiers.
// Delay/Jitter are one-way propagation terms; Loss is an independent drop
// probability per packet; BandwidthBps is the physical serialization rate
// (0 = infinite); Shapers, if set, police each direction (A->B and B->A
// share one shaper here because cellular last-mile policing in the paper
// is per-subscriber, not per-direction-distinct; set both if needed).
type Link struct {
	Delay        time.Duration
	Jitter       time.Duration
	Loss         float64 // 0..1
	BandwidthBps float64
	// MaxQueue bounds the serialization queue as a time budget: a packet
	// that would wait longer than this for the wire is dropped
	// (drop-tail). Zero selects the 100 ms default — without a bound,
	// TCP senders bloat the buffer indefinitely.
	MaxQueue time.Duration
	ShaperAB *Shaper // shaping for a->b (a = lexicographically smaller)
	ShaperBA *Shaper

	// Up reports whether the link can carry traffic. A down link drops
	// every packet (used to model detachment between bTelcos).
	Down bool
	// PausedUntil buffers rather than drops: packets sent before this
	// instant are held and released afterwards, preserving order — the
	// behaviour of an LTE handover with data forwarding to the target
	// eNodeB (make-before-break).
	PausedUntil time.Duration
	// Transit, when set, sees every packet before shaping and may drop it
	// (return false) — the hook that puts an in-path middlebox such as
	// the AGW user plane (bearer accounting + AMBR policing) on the
	// emulated path.
	Transit func(pkt *Packet, at time.Duration) bool

	nextFreeAB time.Duration
	nextFreeBA time.Duration
	lastArrAB  time.Duration
	lastArrBA  time.Duration

	stats LinkStats
}

// LinkStats counts a link's traffic for observability (a tcpdump-grade
// view of the emulation).
type LinkStats struct {
	Sent         uint64
	SentBytes    uint64
	DroppedLoss  uint64
	DroppedQueue uint64
	DroppedDown  uint64
}

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Register installs the receive handler for an endpoint identifier.
// Re-registering replaces the previous handler (used when a UE's address
// changes). The binding box persists so delivery events captured before a
// later Register/Unregister still observe the endpoint's current state.
func (s *Sim) Register(ip string, fn func(*Packet)) {
	s.handlers[s.Endpoint(ip)-1].fn = fn
}

// Unregister removes an endpoint. In-flight packets to it are dropped on
// arrival, modelling an invalidated address.
func (s *Sim) Unregister(ip string) {
	if ep, ok := s.eps[ip]; ok {
		s.handlers[ep-1].fn = nil
	}
}

// Connect installs a link between two endpoints (order-insensitive). The
// link's A direction (ShaperAB, the AB serialization state) is the one
// originating at the lexicographically smaller name.
func (s *Sim) Connect(a, b string, l *Link) {
	epA, epB := s.Endpoint(a), s.Endpoint(b)
	aEP := epA
	if b < a {
		aEP = epB
	}
	s.paths[packEPs(epA, epB)] = &pathEntry{link: l, aEP: aEP}
	s.lastPath = nil
}

// Disconnect removes the link between two endpoints.
func (s *Sim) Disconnect(a, b string) {
	if epA, ok := s.eps[a]; ok {
		if epB, ok := s.eps[b]; ok {
			delete(s.paths, packEPs(epA, epB))
		}
	}
	s.lastPath = nil
}

// Send transmits a packet from pkt.Src to pkt.Dst across the installed
// link, applying loss, shaping, serialization and propagation delay. It
// reports whether the packet was admitted (false = dropped immediately;
// packets can also be dropped silently at delivery if the destination has
// unregistered).
//
// The hot path is allocation-free and hash-free: endpoint strings resolve
// to interned handles once (cached in the Packet), the path table is
// keyed by packed handle pairs behind a single-entry cache, and pooled
// packets/events come from per-Sim free lists.
func (s *Sim) Send(pkt *Packet) bool {
	src, dst := pkt.SrcEP, pkt.DstEP
	if src == 0 {
		src = s.Endpoint(pkt.Src)
		pkt.SrcEP = src
	}
	if dst == 0 {
		dst = s.Endpoint(pkt.Dst)
		pkt.DstEP = dst
	}
	// Transit hooks and receive handlers compare the string fields;
	// materialize them from the interning table (no hashing).
	if pkt.Src == "" {
		pkt.Src = s.epNames[src-1]
	}
	if pkt.Dst == "" {
		pkt.Dst = s.epNames[dst-1]
	}

	key := packEPs(src, dst)
	entry := s.lastPath
	if entry == nil || key != s.lastKey {
		entry = s.paths[key]
		if entry == nil {
			return false
		}
		s.lastKey, s.lastPath = key, entry
	}
	l := entry.link
	if l.Down {
		l.stats.DroppedDown++
		mtr.dropDown.Add(1)
		return false
	}
	if l.Loss > 0 && s.rng.Float64() < l.Loss {
		l.stats.DroppedLoss++
		mtr.dropLoss.Add(1)
		return false
	}
	if l.Transit != nil && !l.Transit(pkt, s.now) {
		l.stats.DroppedQueue++
		mtr.dropQueue.Add(1)
		return false
	}

	forward := src == entry.aEP
	var shaper *Shaper
	if forward {
		shaper = l.ShaperAB
	} else {
		shaper = l.ShaperBA
	}
	shapeDelay, drop := shaper.admit(s.now, pkt.Size)
	if drop {
		l.stats.DroppedQueue++
		mtr.dropQueue.Add(1)
		return false
	}

	var txTime time.Duration
	if l.BandwidthBps > 0 {
		txTime = time.Duration(float64(pkt.Size) * 8 / l.BandwidthBps * float64(time.Second))
		var nextFree *time.Duration
		if forward {
			nextFree = &l.nextFreeAB
		} else {
			nextFree = &l.nextFreeBA
		}
		start := s.now + shapeDelay
		if *nextFree > start {
			start = *nextFree
		}
		maxQueue := l.MaxQueue
		if maxQueue == 0 {
			maxQueue = 100 * time.Millisecond
		}
		if start-s.now > maxQueue {
			l.stats.DroppedQueue++
			mtr.dropQueue.Add(1)
			return false // drop-tail: queue budget exceeded
		}
		*nextFree = start + txTime
		shapeDelay = *nextFree - s.now
		txTime = 0 // already folded into shapeDelay
	}

	delay := l.Delay + shapeDelay + txTime
	if l.Jitter > 0 {
		delay += time.Duration(s.rng.Float64() * float64(l.Jitter))
	}
	// Preserve FIFO ordering within a direction: real links delay-vary
	// but do not reorder back-to-back packets, and transports read
	// reordering as loss.
	arrival := s.now + delay
	if l.PausedUntil > arrival {
		arrival = l.PausedUntil
	}
	var lastArr *time.Duration
	if forward {
		lastArr = &l.lastArrAB
	} else {
		lastArr = &l.lastArrBA
	}
	if arrival < *lastArr {
		arrival = *lastArr
	}
	*lastArr = arrival
	l.stats.Sent++
	l.stats.SentBytes += uint64(pkt.Size)
	s.mtrLocal.sent++
	s.mtrLocal.sentBytes += uint64(pkt.Size)
	if s.mtrLocal.tick++; s.mtrLocal.tick&(flushEvery-1) == 0 {
		s.FlushMetrics()
	}
	if entry.remote != nil {
		// Cross-shard: the full link model has run on this side; park the
		// packet (by value) in the world's mailbox for the window barrier.
		// A pooled packet is done with its send the moment it is copied
		// out, so it recycles here instead of after delivery.
		entry.remote.w.enqueue(entry.remote, pkt, arrival)
		if pkt.pooled {
			s.PutPacket(pkt)
		}
		return true
	}
	pkt.inflight = true
	s.scheduleDelivery(arrival, pkt, s.handlers[dst-1])
	return true
}
