package netem

import (
	"container/heap"
	"slices"
)

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

// eventHeap is the wheel's overflow: a container/heap binary heap in
// (at, seq) order.
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// eventList is one wheel slot: a singly linked list threaded through
// Event.next, in push order. A slot owns no storage, so a push never
// allocates.
type eventList struct{ head, tail *Event }

func (l *eventList) push(e *Event) {
	e.next = nil
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
	}
	l.tail = e
}

// Timing-wheel geometry. Level 0 buckets events into ~1.05 ms slots over a
// ~269 ms horizon; level 1 buckets 256 level-0 slots (~269 ms) per slot
// over a ~69 s horizon. Anything further out waits in an overflow heap and
// cascades down as the cursor approaches. The profile this is built for —
// discrete-event network emulation — schedules almost everything within a
// few RTTs of now, so the steady-state cost of schedule/pop is O(1) list
// appends and slice reads instead of heap churn.
const (
	wheelSlotBits = 20 // log2 of the L0 slot width in nanoseconds
	wheelBits     = 8  // log2 of the slot count per level
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelL1Bits   = wheelSlotBits + wheelBits // log2 of the L1 slot width
)

// timingWheel is a two-level hierarchical timing wheel with an overflow
// heap, popping in exact (at, seq) order. It holds a Sim's timers, its
// At/After events and every delivery that is not on a link queue (see
// linkQueue).
//
// Invariants:
//   - base0 is the absolute L0 slot index of the cursor; base1 == base0>>8.
//   - Every event in slots0 has at>>wheelSlotBits in [base0, base0+256),
//     except "late" events (see below) which live in the current slot.
//   - Every event in slots1 has at>>wheelL1Bits in [base1, base1+256) and
//     at>>wheelSlotBits >= base0+256.
//   - Every overflow event has at>>wheelL1Bits >= base1+256.
//   - cur[pos:] is the current slot, moved out of its list and sorted.
//     While it is non-empty the current slot's list is empty.
//
// Late pushes: advance may move the cursor past empty slots toward an
// event the Sim does not fire next without the Sim clock following
// (RunUntil stops short of it, or a link queue's head comes first).
// A later push can then target a slot the cursor already passed, while
// still being in the Sim's future. Such events join the *current* slot:
// spliced into cur's undrained tail while the slot drains, else appended
// to its list for the sort. That preserves global order: everything else
// in the wheel lives in a strictly later slot, and the current slot drains
// in (at, seq) order.
//
// Every field is written per event, so the wheel is padded at both ends
// like a Sim (see cacheLinePad): one shard's cursor shares no cache line
// with another's.
type timingWheel struct {
	_ cachePad

	slots0   [wheelSlots]eventList
	slots1   [wheelSlots]eventList
	overflow eventHeap
	cur      []*Event // the current slot, sorted; one slice for every slot

	base0 int64 // absolute L0 slot index of the cursor
	base1 int64 // absolute L1 slot index; always base0 >> wheelBits
	pos   int   // drain offset into cur

	count   int // events across all levels
	l0count int // undrained events resident in slots0 and cur
	l1count int // events resident in slots1

	_ cachePad
}

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
		w.slots0[idx&wheelMask].push(e)
		w.l0count++
		return
	}
	idx1 := int64(e.at) >> wheelL1Bits
	if idx1-w.base1 < wheelSlots {
		w.slots1[idx1&wheelMask].push(e)
		w.l1count++
		return
	}
	heap.Push(&w.overflow, e)
}

// insertCurrent places e into the current slot. While the slot drains, e
// is spliced into cur's undrained tail at its (at, seq) position;
// otherwise it joins the slot's list and the eventual sort orders it.
func (w *timingWheel) insertCurrent(e *Event) {
	if w.pos == len(w.cur) {
		w.slots0[w.base0&wheelMask].push(e)
		return
	}
	s := w.cur
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
	w.cur = s
}

// advance moves the cursor to the next pending event and returns it
// without removing it, or returns nil when the wheel is empty. Skipped
// slots are always empty, so advancing never reorders anything; late
// pushes into skipped territory are handled by insertCurrent.
func (w *timingWheel) advance() *Event {
	for w.count > 0 {
		if w.pos < len(w.cur) {
			return w.cur[w.pos]
		}
		if slot := &w.slots0[w.base0&wheelMask]; slot.head != nil {
			w.load(slot)
			continue
		}
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

// load moves a slot's list into cur and sorts it. The links are cleared on
// the way, so a fired event keeps no pointer to the events behind it.
func (w *timingWheel) load(slot *eventList) {
	cur := w.cur[:0]
	for e := slot.head; e != nil; {
		next := e.next
		e.next = nil
		cur = append(cur, e)
		e = next
	}
	*slot = eventList{}
	sortSlot(cur)
	w.cur, w.pos = cur, 0
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
		w.slots1[idx1&wheelMask].push(top)
		w.l1count++
	}
	slot := &w.slots1[w.base1&wheelMask]
	n := 0
	for e := slot.head; e != nil; n++ {
		next := e.next
		w.slots0[int64(e.at)>>wheelSlotBits&wheelMask].push(e)
		e = next
	}
	*slot = eventList{}
	w.l0count += n
	w.l1count -= n
}

// take removes the event advance just returned. Only the Sim event loop
// may call it: after take the Sim advances its clock to the event's
// timestamp, which re-establishes the cursor/now invariant (see the "late
// push" note on timingWheel).
func (w *timingWheel) take() {
	w.cur[w.pos] = nil
	w.pos++
	w.count--
	w.l0count--
	if w.pos == len(w.cur) {
		w.cur, w.pos = w.cur[:0], 0
	}
}
