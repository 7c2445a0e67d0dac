package netem

import (
	"container/heap"
	"slices"
)

// scheduler is the event-queue abstraction behind a Sim. Both
// implementations pop events in strict (at, seq) order, so experiment
// output is byte-identical regardless of which one a Sim was built with;
// the determinism tests in this package and internal/testbed pin that
// equivalence.
//
// pop (and peek, which shares pop's cursor) may only be called by the Sim
// event loop: after pop returns a live event the Sim advances its clock to
// the event's timestamp, which re-establishes the wheel's cursor/now
// invariant (see the "late push" note on timingWheel).
type scheduler interface {
	push(e *Event)
	// peek returns the earliest pending event (possibly cancelled) without
	// removing it, or nil when the queue is empty.
	peek() *Event
	// pop removes and returns the earliest pending event, or nil.
	pop() *Event
	len() int
}

// eventLess is the total firing order: timestamp, then schedule sequence.
// seq is unique per Sim, so there are no ties.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func eventCmp(a, b *Event) int {
	if eventLess(a, b) {
		return -1
	}
	return 1
}

// slotInsertionMax is the longest slot sortSlot orders by insertion.
const slotInsertionMax = 64

// sortSlot orders a wheel slot by (at, seq) and reports whether it took the
// insertion sort. Slots arrive almost in order, because deliveries on one
// link direction are FIFO, so an insertion sort with the comparison inline
// beats a generic sort that calls eventCmp through a func value. A longer
// slot goes to slices.SortFunc, which keeps the worst case O(n log n).
func sortSlot(s []*Event) (insertion bool) {
	if len(s) > slotInsertionMax {
		slices.SortFunc(s, eventCmp)
		return false
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for ; j > 0 && (s[j-1].at > e.at || s[j-1].at == e.at && s[j-1].seq > e.seq); j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
	return true
}

// heapSched is the reference scheduler: the classic container/heap binary
// heap. O(log n) per operation; kept as the oracle for the wheel's fuzz
// and determinism tests and selectable via NewSimScheduler.
type heapSched struct{ h eventHeap }

func (s *heapSched) push(e *Event) { heap.Push(&s.h, e) }

func (s *heapSched) peek() *Event {
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}

func (s *heapSched) pop() *Event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*Event)
}

func (s *heapSched) len() int { return len(s.h) }

// Timing-wheel geometry. Level 0 buckets events into ~1.05 ms slots over a
// ~269 ms horizon; level 1 buckets 256 level-0 slots (~269 ms) per slot
// over a ~69 s horizon. Anything further out waits in an overflow heap and
// cascades down as the cursor approaches. The profile this is built for —
// discrete-event network emulation — schedules almost everything within a
// few RTTs of now, so the steady-state cost of schedule/pop is O(1)
// appends and slot scans instead of heap churn.
const (
	wheelSlotBits = 20 // log2 of the L0 slot width in nanoseconds
	wheelBits     = 8  // log2 of the slot count per level
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelL1Bits   = wheelSlotBits + wheelBits // log2 of the L1 slot width
)

// timingWheel is a two-level hierarchical timing wheel with an overflow
// heap, popping in exact (at, seq) order.
//
// Invariants:
//   - base0 is the absolute L0 slot index of the cursor; base1 == base0>>8.
//   - Every event in slots0 has at>>wheelSlotBits in [base0, base0+256),
//     except "late" events (see below) which live in the current slot.
//   - Every event in slots1 has at>>wheelL1Bits in [base1, base1+256) and
//     at>>wheelSlotBits >= base0+256.
//   - Every overflow event has at>>wheelL1Bits >= base1+256.
//
// Late pushes: peek may advance the cursor past empty slots toward a
// far-future event without the Sim clock following (RunUntil peeks, sees
// the event is beyond its bound, and stops). A later push can then target
// a slot the cursor already passed, while still being in the Sim's future.
// Such events are sorted into the *current* slot's undrained tail instead.
// That preserves global order: everything else in the wheel lives in a
// strictly later slot, and the current slot drains in (at, seq) order.
//
// Every field is written per event, so the wheel is padded at both ends
// like a Sim (see cacheLinePad): one shard's cursor shares no cache line
// with another's.
type timingWheel struct {
	_ cachePad

	slots0   [wheelSlots][]*Event
	slots1   [wheelSlots][]*Event
	overflow eventHeap

	base0  int64 // absolute L0 slot index of the cursor
	base1  int64 // absolute L1 slot index; always base0 >> wheelBits
	pos    int   // drain offset into the current L0 slot
	sorted bool  // whether the current slot has been sorted

	count   int // events across all levels
	l0count int // undrained events resident in slots0
	l1count int // events resident in slots1

	_ cachePad
}

func newTimingWheel() *timingWheel { return &timingWheel{} }

func (w *timingWheel) len() int { return w.count }

func (w *timingWheel) push(e *Event) {
	w.count++
	idx := int64(e.at) >> wheelSlotBits
	if idx <= w.base0 {
		// Current-slot or late push: keep the slot's firing order intact.
		w.insertCurrent(e)
		w.l0count++
		return
	}
	if idx-w.base0 < wheelSlots {
		w.slots0[idx&wheelMask] = append(w.slots0[idx&wheelMask], e)
		w.l0count++
		return
	}
	idx1 := int64(e.at) >> wheelL1Bits
	if idx1-w.base1 < wheelSlots {
		w.slots1[idx1&wheelMask] = append(w.slots1[idx1&wheelMask], e)
		w.l1count++
		return
	}
	heap.Push(&w.overflow, e)
}

// insertCurrent places e into the current slot. If the slot is already
// sorted (it is being drained), e is spliced into the undrained tail at
// its (at, seq) position; otherwise it is appended and the eventual sort
// orders it.
func (w *timingWheel) insertCurrent(e *Event) {
	slot := &w.slots0[w.base0&wheelMask]
	if !w.sorted {
		*slot = append(*slot, e)
		return
	}
	s := *slot
	lo, hi := w.pos, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(s[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, nil)
	copy(s[lo+1:], s[lo:])
	s[lo] = e
	*slot = s
}

// advance moves the cursor to the next pending event and returns it
// without removing it, or returns nil when the wheel is empty. Skipped
// slots are always empty, so advancing never reorders anything; late
// pushes into skipped territory are handled by insertCurrent.
func (w *timingWheel) advance() *Event {
	for w.count > 0 {
		slot := &w.slots0[w.base0&wheelMask]
		if w.pos < len(*slot) {
			if !w.sorted {
				sortSlot(*slot)
				w.sorted = true
			}
			return (*slot)[w.pos]
		}
		// Slot exhausted: reset its storage and advance the cursor.
		*slot = (*slot)[:0]
		w.pos, w.sorted = 0, false
		switch {
		case w.l0count > 0:
			w.base0++
		case w.l1count > 0:
			// L0 is empty: jump straight to the next cascade boundary.
			w.base0 = (w.base1 + 1) << wheelBits
		default:
			// Only the overflow heap holds events: jump to its minimum.
			idx1 := int64(w.overflow[0].at) >> wheelL1Bits
			if idx1 <= w.base1+1 {
				w.base0 = (w.base1 + 1) << wheelBits
			} else {
				w.base1 = idx1 - 1
				w.base0 = idx1 << wheelBits
			}
		}
		for w.base0>>wheelBits > w.base1 {
			w.base1++
			w.cascade()
		}
	}
	return nil
}

// cascade runs when base1 advances: overflow events that entered the L1
// horizon drop into slots1, then the now-current L1 slot is redistributed
// into L0 (all of its events land within the fresh L0 horizon).
func (w *timingWheel) cascade() {
	horizon := w.base1 + wheelSlots
	for w.overflow.Len() > 0 {
		top := w.overflow[0]
		idx1 := int64(top.at) >> wheelL1Bits
		if idx1 >= horizon {
			break
		}
		heap.Pop(&w.overflow)
		w.slots1[idx1&wheelMask] = append(w.slots1[idx1&wheelMask], top)
		w.l1count++
	}
	slot := &w.slots1[w.base1&wheelMask]
	if len(*slot) == 0 {
		return
	}
	for i, e := range *slot {
		idx := int64(e.at) >> wheelSlotBits
		w.slots0[idx&wheelMask] = append(w.slots0[idx&wheelMask], e)
		(*slot)[i] = nil
	}
	w.l0count += len(*slot)
	w.l1count -= len(*slot)
	*slot = (*slot)[:0]
}

func (w *timingWheel) peek() *Event { return w.advance() }

func (w *timingWheel) pop() *Event {
	e := w.advance()
	if e == nil {
		return nil
	}
	slot := &w.slots0[w.base0&wheelMask]
	(*slot)[w.pos] = nil
	w.pos++
	w.count--
	w.l0count--
	if w.pos == len(*slot) {
		*slot = (*slot)[:0]
		w.pos, w.sorted = 0, false
	}
	return e
}
