package netem

import "time"

// Timer is a re-armable callback for a deadline that moves on every packet
// (a retransmission timeout). Reset takes (at, seq) exactly as After would
// at that instant, so firing order is identical to cancelling an Event and
// scheduling a new one — but a Timer keeps one resident event in the
// scheduler instead of leaving a tombstone per re-arm. When the deadline
// moves later the resident stays where it is; on reaching the queue head it
// is re-queued at the live (at, seq), or dropped if the timer was stopped,
// without the clock advancing (see Event.stale). Only a deadline that moves
// earlier than the resident orphans it and allocates a replacement.
//
// At/After are for one-shots; anything re-armed per packet owns a Timer.
type Timer struct {
	s      *Sim
	fn     func()
	at     time.Duration // live deadline, valid while armed
	seq    uint64
	armed  bool
	ev     *Event // resident event; in the scheduler iff queued
	queued bool
}

// NewTimer returns a stopped timer that calls fn when it expires.
func (s *Sim) NewTimer(fn func()) *Timer {
	t := &Timer{s: s, fn: fn}
	t.ev = &Event{tm: t}
	return t
}

// Reset (re-)arms the timer to fire d from now, replacing any earlier
// deadline. It may be called from the timer's own callback.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := t.s
	s.seq++
	t.at, t.seq, t.armed = s.now+d, s.seq, true
	if t.queued {
		if t.ev.at <= t.at {
			return // the resident surfaces first and re-queues itself
		}
		t.ev.tm, t.ev.cancelled = nil, true
		t.ev = &Event{tm: t}
	}
	t.enqueue()
}

// enqueue pushes the (unqueued) resident event at the live deadline.
func (t *Timer) enqueue() {
	t.ev.at, t.ev.seq, t.queued = t.at, t.seq, true
	t.s.sched.push(t.ev)
}

// Stop disarms the timer; stopping a stopped timer is a no-op.
func (t *Timer) Stop() { t.armed = false }

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }
