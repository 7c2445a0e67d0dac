package netem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// schedOp is one step of a scheduler workload: push an event at a given
// time, or pop the next one. The equivalence tests replay the same op
// stream against the wheel and the reference heap and demand identical
// pop sequences.
type schedOp struct {
	push bool
	at   time.Duration
}

// replay feeds ops to a scheduler and returns the (at, seq) sequence of
// every pop, including the final drain.
func replay(s scheduler, ops []schedOp) []Event {
	var seq uint64
	var out []Event
	pop := func() {
		if e := s.pop(); e != nil {
			out = append(out, Event{at: e.at, seq: e.seq})
		}
	}
	for _, op := range ops {
		if op.push {
			seq++
			s.push(&Event{at: op.at, seq: seq})
		} else {
			pop()
		}
	}
	for s.len() > 0 {
		pop()
	}
	return out
}

// checkEquivalence replays ops on both schedulers and fails the test on
// the first diverging pop.
func checkEquivalence(t *testing.T, ops []schedOp) {
	t.Helper()
	want := replay(&heapSched{}, ops)
	got := replay(newTimingWheel(), ops)
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
// and duplicate timestamps (ordered by seq alone).
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
	w := newTimingWheel()
	w.push(&Event{at: 3 * time.Minute, seq: 1})
	if e := w.pop(); e == nil || e.at != 3*time.Minute {
		t.Fatalf("overflow jump popped %+v", e)
	}
	w.push(&Event{at: 3*time.Minute + 500*time.Millisecond, seq: 2})
	if e := w.pop(); e == nil || e.seq != 2 {
		t.Fatalf("L1 jump popped %+v", e)
	}
	if w.len() != 0 {
		t.Fatalf("len = %d after draining", w.len())
	}
}

// TestWheelClampedPush pins the "late push" rule at the Sim level: RunUntil
// peeks at a far-future event (advancing the wheel cursor past empty
// slots), then a new event lands between the clock and the cursor. It must
// still fire first, at its own timestamp.
func TestWheelClampedPush(t *testing.T) {
	s := NewSimScheduler(1, SchedulerWheel)
	var order []time.Duration
	s.At(10*time.Second, func() { order = append(order, s.Now()) })
	s.RunUntil(time.Second) // peeks past the 10 s event; cursor has moved
	s.At(2*time.Second, func() { order = append(order, s.Now()) })
	s.Run()
	if len(order) != 2 || order[0] != 2*time.Second || order[1] != 10*time.Second {
		t.Fatalf("firing order/times = %v", order)
	}
}

// TestWheelLatePushWhileDraining covers insertCurrent's sorted-splice arm:
// a handler schedules new events for the very instant the slot is mid-
// drain, which must slot into the undrained tail in (at, seq) order.
func TestWheelLatePushWhileDraining(t *testing.T) {
	s := NewSimScheduler(1, SchedulerWheel)
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
	s.Run()
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
		w := newTimingWheel()
		for _, e := range evs {
			w.push(e)
		}
		for i := 0; i < n; i++ {
			e := w.pop()
			if e == nil || e.seq != uint64(i+1) {
				t.Fatalf("%s: pop %d = %+v, want seq %d", order, i, e, i+1)
			}
		}
	}
}

// FuzzWheelOrder drives both schedulers from raw fuzz bytes and asserts
// identical pop order. Three bytes per op: an opcode selecting push
// horizon or pop, and a 16-bit delta scaled into the chosen level.
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
			case 7: // advance the notional clock
				now += delta << 10
			default: // push at now + delta, scaled into level `op`
				ops = append(ops, schedOp{push: true, at: now + delta<<(4+op*5)})
				pending++
			}
		}
		checkEquivalence(t, ops)
	})
}

// TestWheelCancelInterleavings drives two Sims — wheel and heap — through
// an identical randomized schedule/cancel interleaving (timers rescheduling
// timers, some cancelled mid-flight, horizons from µs to minutes) and
// demands identical firing traces.
func TestWheelCancelInterleavings(t *testing.T) {
	run := func(kind SchedulerKind, seed int64) []string {
		s := NewSimScheduler(1, kind) // Sim rng unused; ops use their own rng
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
		s.Run()
		return trace
	}
	for seed := int64(1); seed <= 10; seed++ {
		wheel := run(SchedulerWheel, seed)
		heap := run(SchedulerHeap, seed)
		if len(wheel) == 0 || len(wheel) != len(heap) {
			t.Fatalf("seed %d: %d wheel firings vs %d heap", seed, len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("seed %d firing %d: wheel %q vs heap %q", seed, i, wheel[i], heap[i])
			}
		}
	}
}

// TestSchedulerABTraceIdentical runs the package's lossy, jittery
// ping-pong trace under both scheduler kinds and demands identical
// delivery traces — the in-package version of the cross-experiment golden
// checks in internal/testbed.
func TestSchedulerABTraceIdentical(t *testing.T) {
	prev := DefaultScheduler()
	defer SetDefaultScheduler(prev)
	SetDefaultScheduler(SchedulerWheel)
	wheel := traceRun(42)
	SetDefaultScheduler(SchedulerHeap)
	heap := traceRun(42)
	if len(wheel) == 0 || len(wheel) != len(heap) {
		t.Fatalf("trace lengths: wheel %d, heap %d", len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			t.Fatalf("event %d: wheel %q vs heap %q", i, wheel[i], heap[i])
		}
	}
}

// TestSendDeliverZeroAlloc asserts the pooled steady state end to end:
// GetPacket + Send + Step + auto-recycle allocates nothing once the free
// lists are warm. The CI bench smoke enforces the same bound via
// BenchmarkSendDeliver -benchmem.
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
	// Warm the free lists and every L0 slot's storage (the clock walks one
	// ~1 ms slot per send, so one full wheel revolution covers all 256).
	for i := 0; i < 512; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("steady-state send/deliver allocates %.1f objects/op", allocs)
	}
}

// schedulerKinds enumerates the A/B pair for benchmarks.
var schedulerKinds = []struct {
	name string
	kind SchedulerKind
}{
	{"wheel", SchedulerWheel},
	{"heap", SchedulerHeap},
}

func newSchedOfKind(k SchedulerKind) scheduler {
	if k == SchedulerHeap {
		return &heapSched{}
	}
	return newTimingWheel()
}

// BenchmarkSchedule measures raw scheduler push+pop throughput with a
// resident population of 4096 events and delivery-like deltas (a few ms),
// the regime every packet-heavy experiment lives in.
func BenchmarkSchedule(b *testing.B) {
	for _, sk := range schedulerKinds {
		b.Run(sk.name, func(b *testing.B) {
			s := newSchedOfKind(sk.kind)
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
				e := s.pop()
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
	for _, sk := range schedulerKinds {
		b.Run(sk.name, func(b *testing.B) {
			s := newSchedOfKind(sk.kind)
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
				e := s.pop()
				now = e.at
				seq++
				e.at, e.seq = now+time.Duration(i%3+1)*30*time.Second, seq
				s.push(e)
			}
		})
	}
}

// BenchmarkSendDeliver measures the full pooled hot path — GetPacket,
// Send (interned handles, cached path), delivery, auto-recycle — and is
// the benchmark the CI smoke gates at 0 allocs/op.
func BenchmarkSendDeliver(b *testing.B) {
	for _, sk := range schedulerKinds {
		b.Run(sk.name, func(b *testing.B) {
			s := NewSimScheduler(1, sk.kind)
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
			for i := 0; i < 512; i++ { // warm free lists and every L0 slot
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
		})
	}
}
