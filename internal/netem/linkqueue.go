package netem

import "time"

// linkQueue is one path direction's deliveries in flight, threaded through
// Event.next in send order. Send clamps each arrival to the link
// direction's last one, and seq grows with every schedule, so send order
// is already (at, seq) order: a queue needs no sorting, and only its head
// competes for the next firing.
type linkQueue struct{ head, tail *Event }

// queueHead is a heap entry: a non-empty link queue and a copy of its
// head's (at, seq), so a sift compares without following a pointer.
type queueHead struct {
	at  time.Duration
	seq uint64
	q   *linkQueue
}

// before reports whether h's head fires before e.
func (h *queueHead) before(e *Event) bool {
	return h.at < e.at || h.at == e.at && h.seq < e.seq
}

func (h *queueHead) less(o *queueHead) bool {
	return h.at < o.at || h.at == o.at && h.seq < o.seq
}

// linkHeapCap bounds the heap of queue heads. A pop sifts the heap, which
// BenchmarkSendDeliverLinks measures as cheaper than the wheel's load and
// sort at 1 and 4 busy links and dearer from 8 on (DESIGN.md §2.1). A
// direction that finds the heap full schedules on the wheel instead, so a
// shard with hundreds of busy links keeps most of them there.
const linkHeapCap = 4

// pushQueue adds q, whose head was just set, to the heap.
func (s *Sim) pushQueue(q *linkQueue) {
	x := queueHead{at: q.head.at, seq: q.head.seq, q: q}
	i := s.nlq
	s.nlq++
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(&s.lq[p]) {
			break
		}
		s.lq[i] = s.lq[p]
		i = p
	}
	s.lq[i] = x
}

// popQueue removes and returns the head of the first link queue, and
// keys the queue by its next delivery or, once it is empty, takes it out
// of the heap.
func (s *Sim) popQueue() *Event {
	top := &s.lq[0]
	q := top.q
	e := q.head
	q.head, e.next = e.next, nil
	if q.head != nil {
		top.at, top.seq = q.head.at, q.head.seq
	} else {
		q.tail = nil
		s.nlq--
		s.lq[0] = s.lq[s.nlq]
		s.lq[s.nlq] = queueHead{}
	}
	s.siftDown()
	return e
}

// siftDown restores the heap order below a new top entry.
func (s *Sim) siftDown() {
	h := s.lq[:s.nlq]
	if len(h) < 2 {
		return
	}
	x := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(&h[c]) {
			c++
		}
		if !h[c].less(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
