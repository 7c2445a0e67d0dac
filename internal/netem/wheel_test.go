package netem

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// heapSched is the reference queue the wheel is checked against: the
// classic container/heap binary heap, O(log n) per operation.
type heapSched struct{ h eventHeap }

func (s *heapSched) push(e *Event) { heap.Push(&s.h, e) }

func (s *heapSched) pop(t time.Duration) *Event {
	if len(s.h) == 0 || s.h[0].at > t {
		return nil
	}
	return heap.Pop(&s.h).(*Event)
}

func (s *heapSched) len() int { return len(s.h) }

// pop is the queue interface's bounded pop on the wheel: what stepBy does
// when no link queue is pending, advance and then take.
func (w *timingWheel) pop(t time.Duration) *Event {
	e := w.advance()
	if e == nil || e.at > t {
		return nil
	}
	w.take()
	return e
}

// eventQueue is what the equivalence tests drive op for op: the timing
// wheel and heapSched.
type eventQueue interface {
	push(e *Event)
	pop(t time.Duration) *Event
	len() int
}

// schedOp is one step of a scheduler workload: push an event at a given
// time, pop the next one, or pop everything due by a given time (what
// RunUntil does). The equivalence tests replay the same op stream against
// the wheel and the reference heap and demand identical pop sequences.
type schedOp struct {
	push  bool
	until bool
	at    time.Duration
}

// replay feeds ops to a queue and returns the (at, seq) sequence of every
// pop, including the final drain.
func replay(s eventQueue, ops []schedOp) []Event {
	var seq uint64
	var out []Event
	pop := func(t time.Duration) bool {
		e := s.pop(t)
		if e != nil {
			out = append(out, Event{at: e.at, seq: e.seq})
		}
		return e != nil
	}
	for _, op := range ops {
		switch {
		case op.push:
			seq++
			s.push(&Event{at: op.at, seq: seq})
		case op.until:
			for pop(op.at) {
			}
		default:
			pop(forever)
		}
	}
	for s.len() > 0 {
		pop(forever)
	}
	return out
}

// checkEquivalence replays ops on both queues and fails the test on the
// first diverging pop.
func checkEquivalence(t *testing.T, ops []schedOp) {
	t.Helper()
	want := replay(&heapSched{}, ops)
	got := replay(&timingWheel{}, ops)
	if len(want) != len(got) {
		t.Fatalf("heap popped %d events, wheel %d", len(want), len(got))
	}
	for i := range want {
		if want[i].at != got[i].at || want[i].seq != got[i].seq {
			t.Fatalf("pop %d: heap (%v, %d) vs wheel (%v, %d)",
				i, want[i].at, want[i].seq, got[i].at, got[i].seq)
		}
	}
}

// randomOps builds a schedule/pop interleaving that exercises every wheel
// level: deltas from sub-slot (µs) through L0 (ms), L1 (hundreds of ms),
// and the overflow heap (minutes), plus exact slot-boundary collisions
// and duplicate timestamps (ordered by seq alone). Each move of the front
// pops what it passed, as RunUntil would, leaving the wheel's cursor ahead
// of the clock.
func randomOps(rng *rand.Rand, n int) []schedOp {
	var ops []schedOp
	var now time.Duration // tracks the front, as the Sim clock would
	pending := 0
	for i := 0; i < n; i++ {
		if pending > 0 && rng.Intn(3) == 0 {
			ops = append(ops, schedOp{push: false})
			pending--
			continue
		}
		var delta time.Duration
		switch rng.Intn(6) {
		case 0:
			delta = time.Duration(rng.Intn(1 << wheelSlotBits)) // same/adjacent L0 slot
		case 1:
			delta = time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		case 2:
			delta = time.Duration(rng.Int63n(int64(5 * time.Second))) // L1 territory
		case 3:
			delta = time.Duration(rng.Int63n(int64(5 * time.Minute))) // overflow
		case 4:
			delta = time.Duration(rng.Intn(4)) << wheelSlotBits // exact slot boundaries
		case 5:
			delta = 0 // duplicate timestamp: seq breaks the tie
		}
		ops = append(ops, schedOp{push: true, at: now + delta})
		pending++
		if rng.Intn(4) == 0 {
			now += time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
			ops = append(ops, schedOp{until: true, at: now})
		}
	}
	return ops
}

// TestWheelMatchesHeapRandom is the randomized equivalence check: for many
// seeds, a mixed push/pop workload spanning all wheel levels must pop in
// exactly the heap's (at, seq) order.
func TestWheelMatchesHeapRandom(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkEquivalence(t, randomOps(rng, 2000))
	}
}

// TestWheelOverflowCascade pins the far-future path: events beyond the L1
// horizon start in the overflow heap and must cascade down through L1 and
// L0 in order, including events landing exactly on cascade boundaries.
func TestWheelOverflowCascade(t *testing.T) {
	var ops []schedOp
	times := []time.Duration{
		0,
		time.Duration(1) << wheelSlotBits,
		100 * time.Millisecond,
		time.Duration(wheelSlots) << wheelSlotBits, // first L1 slot boundary
		5 * time.Second,
		time.Duration(wheelSlots) << wheelL1Bits, // overflow horizon boundary
		80 * time.Second,
		200 * time.Second,
		10 * time.Minute,
	}
	// Push in reverse so nothing arrives pre-sorted, twice for seq ties.
	for round := 0; round < 2; round++ {
		for i := len(times) - 1; i >= 0; i-- {
			ops = append(ops, schedOp{push: true, at: times[i]})
		}
	}
	checkEquivalence(t, ops)
}

// TestWheelFarFutureJump covers the empty-wheel cursor jumps: a lone
// overflow event, then a lone L1 event, each reached without walking the
// intervening empty slots one by one.
func TestWheelFarFutureJump(t *testing.T) {
	w := &timingWheel{}
	w.push(&Event{at: 3 * time.Minute, seq: 1})
	if e := w.pop(forever); e == nil || e.at != 3*time.Minute {
		t.Fatalf("overflow jump popped %+v", e)
	}
	w.push(&Event{at: 3*time.Minute + 500*time.Millisecond, seq: 2})
	if e := w.pop(forever); e == nil || e.seq != 2 {
		t.Fatalf("L1 jump popped %+v", e)
	}
	if w.len() != 0 {
		t.Fatalf("len = %d after draining", w.len())
	}
}

// TestWheelClampedPush pins the "late push" rule at the Sim level: RunUntil
// reaches for a far-future event (advancing the wheel cursor past empty
// slots), then a new event lands between the clock and the cursor. It must
// still fire first, at its own timestamp.
func TestWheelClampedPush(t *testing.T) {
	s := NewSim(1)
	var order []time.Duration
	s.At(10*time.Second, func() { order = append(order, s.Now()) })
	s.RunUntil(time.Second) // reaches the 10 s event; cursor has moved
	s.At(2*time.Second, func() { order = append(order, s.Now()) })
	run(s)
	if len(order) != 2 || order[0] != 2*time.Second || order[1] != 10*time.Second {
		t.Fatalf("firing order/times = %v", order)
	}
}

// TestWheelLatePushWhileDraining covers insertCurrent's sorted-splice arm:
// a handler schedules new events for the very instant the slot is mid-
// drain, which must slot into the undrained tail in (at, seq) order.
func TestWheelLatePushWhileDraining(t *testing.T) {
	s := NewSim(1)
	var order []int
	at := 5 * time.Millisecond
	s.At(at, func() {
		order = append(order, 0)
		// Same timestamp as the two events below; must fire between them
		// in seq order, i.e. after 1 and 2 which were scheduled earlier.
		s.At(at, func() { order = append(order, 3) })
	})
	s.At(at, func() { order = append(order, 1) })
	s.At(at, func() { order = append(order, 2) })
	run(s)
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestWheelLongSlot is sortSlot's worst case: 10,000 events in one slot,
// pushed in reverse (at, seq) order and in random order, must drain in
// (at, seq) order through the generic sort, not the quadratic insertion
// sort slots of a few events take.
func TestWheelLongSlot(t *testing.T) {
	const n = 10_000
	for _, order := range []string{"reverse", "random"} {
		evs := make([]*Event, n)
		for i := range evs {
			// Within one ~1.05 ms slot; every fourth timestamp repeats, so
			// seq breaks ties.
			evs[i] = &Event{at: time.Duration(i/4) * 100, seq: uint64(i + 1)}
		}
		if order == "reverse" {
			slices.Reverse(evs)
		} else {
			rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		}
		if sortSlot(slices.Clone(evs)) {
			t.Fatalf("%s: a %d-event slot took the insertion sort", order, n)
		}
		w := &timingWheel{}
		for _, e := range evs {
			w.push(e)
		}
		for i := 0; i < n; i++ {
			e := w.pop(forever)
			if e == nil || e.seq != uint64(i+1) {
				t.Fatalf("%s: pop %d = %+v, want seq %d", order, i, e, i+1)
			}
		}
	}
}

// FuzzWheelOrder drives the wheel and the reference heap from raw fuzz
// bytes and asserts identical pop order. Three bytes per op: an opcode
// selecting push horizon, pop, or a clock advance that pops what it
// passes, and a 16-bit delta scaled into the chosen level.
func FuzzWheelOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 255, 255, 6, 0, 0, 5, 255, 255, 6, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []schedOp
		var now time.Duration
		pending := 0
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 8
			delta := time.Duration(data[i+1]) | time.Duration(data[i+2])<<8
			switch op {
			case 6: // pop
				if pending > 0 {
					ops = append(ops, schedOp{push: false})
					pending--
				}
			case 7: // advance the notional clock, as RunUntil does
				now += delta << 10
				ops = append(ops, schedOp{until: true, at: now})
			default: // push at now + delta, scaled into level `op`
				ops = append(ops, schedOp{push: true, at: now + delta<<(4+op*5)})
				pending++
			}
		}
		checkEquivalence(t, ops)
	})
}

// traceSHA hashes a firing trace, one line per entry.
func traceSHA(trace []string) string {
	sum := sha256.Sum256([]byte(strings.Join(trace, "\n")))
	return hex.EncodeToString(sum[:])
}

// cancelInterleaving runs a randomized schedule/cancel interleaving —
// timers rescheduling timers, some cancelled mid-flight, horizons from µs
// to minutes — and returns its firing trace.
func cancelInterleaving(seed int64) []string {
	s := NewSim(1) // Sim rng unused; ops use their own rng
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var events []*Event
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		n := id
		var d time.Duration
		switch rng.Intn(4) {
		case 0:
			d = time.Duration(rng.Int63n(int64(time.Millisecond)))
		case 1:
			d = time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
		case 2:
			d = time.Duration(rng.Int63n(int64(10 * time.Second)))
		case 3:
			d = time.Duration(rng.Int63n(int64(3 * time.Minute)))
		}
		e := s.After(d, func() {
			trace = append(trace, fmt.Sprintf("%d@%v", n, s.Now()))
			// Fired timers spawn more work, like retransmit timers do.
			if depth < 3 && rng.Intn(2) == 0 {
				schedule(depth + 1)
			}
			// ... and sometimes cancel a random pending event.
			if len(events) > 0 && rng.Intn(3) == 0 {
				events[rng.Intn(len(events))].Cancel()
			}
		})
		events = append(events, e)
	}
	for i := 0; i < 200; i++ {
		schedule(0)
	}
	run(s)
	return trace
}

// TestWheelCancelInterleavings pins the firing traces of ten seeded
// schedule/cancel interleavings to the hash a heap-backed Sim rendered, and
// the wheel-backed one with it, before the heap left the Sim.
func TestWheelCancelInterleavings(t *testing.T) {
	var all []string
	for seed := int64(1); seed <= 10; seed++ {
		trace := cancelInterleaving(seed)
		if len(trace) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
		all = append(all, trace...)
	}
	const want = "71791f28592c432f0a5b5401c8ef8efdb05f59c875a9d50802ab7bb08e7cac39"
	if got := traceSHA(all); got != want || len(all) != 3106 {
		t.Fatalf("%d firings hash %s, want 3106 hashing %s", len(all), got, want)
	}
}

// TestSchedulerABTraceIdentical pins the package's lossy, jittery ping-pong
// trace to the hash both scheduler kinds rendered before the heap left the
// Sim — the in-package version of the experiment pins in internal/testbed.
func TestSchedulerABTraceIdentical(t *testing.T) {
	trace := traceRun(42)
	const want = "7bc2276d2b7133308e22719b1fc79d64df795acf97e217bcff4612c0d539086e"
	if got := traceSHA(trace); got != want || len(trace) != 163 {
		t.Fatalf("%d deliveries hash %s, want 163 hashing %s", len(trace), got, want)
	}
}

// TestSendDeliverZeroAlloc asserts the pooled steady state end to end:
// GetPacket + Send + Step + auto-recycle allocates nothing once one slab of
// events and packets is out. The clock walks one ~1 ms wheel slot per send,
// so the three measured bursts walk ~180 slots no packet has touched yet;
// a slot owns no storage, so none needs warming.
func TestSendDeliverZeroAlloc(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Delay: time.Millisecond})
	s.Register("b", func(*Packet) {})
	a, bEP := s.Endpoint("a"), s.Endpoint("b")
	send := func() {
		pkt := s.GetPacket()
		pkt.SrcEP, pkt.DstEP = a, bEP
		pkt.Size = 1400
		if !s.Send(pkt) {
			t.Fatal("send refused")
		}
		s.Step()
	}
	for i := 0; i < poolSlab; i++ {
		send()
	}
	burst := func() {
		for range 64 {
			send()
		}
	}
	if allocs := testing.AllocsPerRun(3, burst); allocs != 0 {
		t.Fatalf("steady-state send/deliver allocates %.1f objects per 64 packets", allocs)
	}
}

// queueKinds enumerates the wheel and the reference heap for the raw
// queue benchmarks.
var queueKinds = []struct {
	name string
	new  func() eventQueue
}{
	{"wheel", func() eventQueue { return &timingWheel{} }},
	{"heap", func() eventQueue { return &heapSched{} }},
}

// BenchmarkSchedule measures raw scheduler push+pop throughput with a
// resident population of 4096 events and delivery-like deltas (a few ms),
// the regime every packet-heavy experiment lives in.
func BenchmarkSchedule(b *testing.B) {
	for _, qk := range queueKinds {
		b.Run(qk.name, func(b *testing.B) {
			s := qk.new()
			const resident = 4096
			var seq uint64
			deltas := [...]time.Duration{
				200 * time.Microsecond, time.Millisecond,
				7 * time.Millisecond, 40 * time.Millisecond,
			}
			for i := 0; i < resident; i++ {
				seq++
				s.push(&Event{at: deltas[i%len(deltas)], seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := s.pop(forever)
				now := e.at
				seq++
				e.at, e.seq = now+deltas[i%len(deltas)], seq
				s.push(e)
			}
		})
	}
}

// BenchmarkSchedule_FarFuture stresses the non-happy path: every push
// lands in L1 or the overflow heap and must cascade down before popping.
func BenchmarkSchedule_FarFuture(b *testing.B) {
	for _, qk := range queueKinds {
		b.Run(qk.name, func(b *testing.B) {
			s := qk.new()
			const resident = 1024
			var seq uint64
			var now time.Duration
			push := func(d time.Duration) {
				seq++
				s.push(&Event{at: now + d, seq: seq})
			}
			for i := 0; i < resident; i++ {
				push(time.Duration(i%3+1) * 30 * time.Second)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := s.pop(forever)
				now = e.at
				seq++
				e.at, e.seq = now+time.Duration(i%3+1)*30*time.Second, seq
				s.push(e)
			}
		})
	}
}

// BenchmarkSendDeliver measures the full pooled hot path — GetPacket,
// Send (interned handles, cached path), delivery, auto-recycle.
// TestSendDeliverZeroAlloc holds the same loop at 0 allocs/op.
func BenchmarkSendDeliver(b *testing.B) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Delay: time.Millisecond, BandwidthBps: 1e9})
	delivered := 0
	s.Register("b", func(*Packet) { delivered++ })
	a, bEP := s.Endpoint("a"), s.Endpoint("b")
	send := func() {
		pkt := s.GetPacket()
		pkt.SrcEP, pkt.DstEP = a, bEP
		pkt.Size = 1400
		if !s.Send(pkt) {
			b.Fatal("send refused")
		}
		s.Step()
	}
	for i := 0; i < poolSlab; i++ { // one slab of events and packets
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
}

// len is the number of pending events.
func (w *timingWheel) len() int { return w.count }
