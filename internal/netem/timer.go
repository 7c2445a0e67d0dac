package netem

import "time"

// Timer is a re-armable callback: a deadline that moves on every packet (a
// retransmission timeout), or a fixed-period tick that re-arms itself each
// time it fires. Reset takes (at, seq) exactly as After would at that
// instant, so firing order is identical to cancelling an Event and
// scheduling a new one — but a Timer keeps one resident event in the
// scheduler instead of leaving a tombstone, or a new Event, per re-arm. When the deadline
// moves later the resident stays where it is; on reaching the queue head it
// is re-queued at the live (at, seq), or dropped if the timer was stopped,
// without the clock advancing (see Event.stale). Only a deadline that moves
// earlier than the resident orphans it: the replacement comes from the
// Sim's event free list, and the orphan goes back to it when it surfaces.
//
// At/After are for one-shots; anything that re-arms itself owns a Timer.
type Timer struct {
	s      *Sim
	fn     func()
	at     time.Duration // live deadline, valid while armed
	seq    uint64
	armed  bool
	ev     *Event // resident event; in the scheduler iff queued
	queued bool
}

// NewTimer returns a stopped timer that calls fn when it expires. Its first
// resident comes from the Sim's event free list, as Reset's replacements do.
func (s *Sim) NewTimer(fn func()) *Timer {
	t := &Timer{s: s, fn: fn}
	t.ev = s.newEvent()
	t.ev.tm = t
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
		t.ev = s.newEvent()
		t.ev.tm = t
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
