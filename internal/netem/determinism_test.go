package netem

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// traceRun drives one self-contained sim through a lossy, jittery
// ping-pong exchange and returns the delivery trace. Everything observable
// — drop decisions, jitter draws, arrival order — flows from the seed, so
// two runs with the same seed must produce identical traces no matter
// what other sims are doing on other goroutines.
func traceRun(seed int64) []string {
	s := NewSim(seed)
	s.Connect("a", "b", &Link{
		Delay:        7 * time.Millisecond,
		Jitter:       3 * time.Millisecond,
		Loss:         0.1,
		BandwidthBps: 8e6,
	})
	var trace []string
	record := func(pkt *Packet) {
		trace = append(trace, fmt.Sprintf("%s->%s %d @%v", pkt.Src, pkt.Dst, pkt.Size, s.Now()))
	}
	s.Register("a", func(pkt *Packet) {
		record(pkt)
		// Echo smaller replies until the payload wears out.
		if pkt.Size > 100 {
			s.Send(&Packet{Src: "a", Dst: "b", Size: pkt.Size / 2})
		}
	})
	s.Register("b", func(pkt *Packet) {
		record(pkt)
		if pkt.Size > 100 {
			s.Send(&Packet{Src: "b", Dst: "a", Size: pkt.Size / 2})
		}
	})
	for i := 0; i < 40; i++ {
		sz := 1400 << uint(i%4)
		s.At(time.Duration(i)*5*time.Millisecond, func() {
			s.Send(&Packet{Src: "b", Dst: "a", Size: sz})
		})
	}
	s.Run()
	return trace
}

// TestConcurrentSimsDeterministic runs N independent sims on their own
// goroutines (the testbed.Runner execution model) and asserts each trace
// is identical to the one produced by a sequential run of the same seed.
// Run under -race this also proves the sims share no mutable state.
func TestConcurrentSimsDeterministic(t *testing.T) {
	const n = 8
	sequential := make([][]string, n)
	for i := range sequential {
		sequential[i] = traceRun(int64(i + 1))
	}

	concurrent := make([][]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			concurrent[i] = traceRun(int64(i + 1))
		}()
	}
	wg.Wait()

	for i := range sequential {
		if len(sequential[i]) == 0 {
			t.Fatalf("seed %d: empty trace", i+1)
		}
		if len(sequential[i]) != len(concurrent[i]) {
			t.Fatalf("seed %d: %d events sequential vs %d concurrent",
				i+1, len(sequential[i]), len(concurrent[i]))
		}
		for j := range sequential[i] {
			if sequential[i][j] != concurrent[i][j] {
				t.Fatalf("seed %d event %d: %q vs %q", i+1, j, sequential[i][j], concurrent[i][j])
			}
		}
	}
}

// TestRunUntilEmptyQueue pins the drained-queue behaviour: RunUntil on an
// empty sim just advances the clock, and does so without allocating (the
// old implementation manufactured a sentinel Event per call).
func TestRunUntilEmptyQueue(t *testing.T) {
	s := NewSim(1)
	s.RunUntil(time.Second)
	if s.Now() != time.Second {
		t.Fatalf("now = %v", s.Now())
	}
	next := 2 * time.Second
	allocs := testing.AllocsPerRun(100, func() {
		s.RunUntil(next)
		next += time.Second
	})
	if allocs != 0 {
		t.Fatalf("RunUntil on drained queue allocates %.1f objects/op", allocs)
	}
}

// TestDeliveryEventPooling asserts the per-packet delivery path reaches an
// allocation-free steady state: delivery events come from the free list
// and handler bindings are resolved once at send time.
func TestDeliveryEventPooling(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Delay: time.Millisecond})
	got := 0
	s.Register("b", func(*Packet) { got++ })
	pkt := &Packet{Src: "a", Dst: "b", Size: 1400}
	send := func() {
		if !s.Send(pkt) {
			t.Fatal("send refused")
		}
		s.RunUntil(s.Now() + 2*time.Millisecond)
	}
	for i := 0; i < 64; i++ { // warm the free list and heap capacity
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if allocs != 0 {
		t.Fatalf("steady-state delivery allocates %.1f objects/op", allocs)
	}
	if got == 0 {
		t.Fatal("no deliveries observed")
	}
}

// TestPutPacketTwiceIsNoOp: a packet already back in the pool must not go
// in again — a handler that forwards its packet across shards has it
// recycled by Send and then once more by Step — or two GetPackets would
// hand out one packet.
func TestPutPacketTwiceIsNoOp(t *testing.T) {
	s := NewSim(1)
	p := s.GetPacket()
	s.PutPacket(p)
	s.PutPacket(p)
	if a, b := s.GetPacket(), s.GetPacket(); a == b {
		t.Fatal("two GetPackets returned the same packet")
	}
}

// TestCancelAfterFireSafe pins the contract event pooling must preserve:
// caller-visible events from At/After are never recycled, so a post-fire
// Cancel (mptcp does this with its timers) stays a harmless no-op.
func TestCancelAfterFireSafe(t *testing.T) {
	s := NewSim(1)
	fired := 0
	ev := s.After(time.Millisecond, func() { fired++ })
	s.Connect("a", "b", &Link{Delay: time.Millisecond})
	s.Register("b", func(*Packet) {})
	s.Run()
	ev.Cancel() // after firing: must not corrupt anything
	// Drive pooled delivery traffic over the same sim afterwards.
	for i := 0; i < 10; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 100})
		s.Run()
	}
	if fired != 1 {
		t.Fatalf("fired %d times", fired)
	}
	if !ev.Cancelled() {
		t.Fatal("Cancel not recorded")
	}
}
