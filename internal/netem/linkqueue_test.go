package netem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// lqHosts is the number of hosts in the link-queue workload. Every pair is
// connected at the start, so 56 directions can be busy at once: more than
// the heap holds, which sends some directions' deliveries to the wheel.
const lqHosts = 8

// lqRec is one scheduled callback as the oracle expects it: when it must
// fire and its schedule order, which mirrors the Sim's seq because the
// oracle counts exactly the calls that take one (At/After, Timer.Reset and
// an admitted Send).
type lqRec struct {
	at        time.Duration
	order     int
	what      string
	src, dst  int // deliveries: the sending and the receiving host
	cancelled bool
	fired     bool
}

// lqDir is a link direction as Send sees it: the link, and whether the
// packet goes from the lexicographically smaller endpoint.
type lqDir struct {
	link *Link
	fwd  bool
}

// lqCoverage counts the cases the seeded test must have run.
type lqCoverage struct {
	maxBusyDirs  int // most directions with a delivery pending at once
	echoes       int // handlers re-sending the packet they were handed
	doubleSends  int // a non-pooled packet in flight twice
	reconnects   int // Disconnect + Connect with a delivery in flight on the pair
	midSlotStops int // RunUntil bounds with a live callback later in the same wheel slot
	resetEarlier int
	resetLater   int
	cancels      int
}

// lqOracle drives one Sim and records, on the test side, what must fire
// and what did: every callback fires once, at the time it was scheduled
// for, and the firing sequence is in (time, schedule order).
type lqOracle struct {
	t       testing.TB
	s       *Sim
	recs    []lqRec
	fired   []int
	order   int
	lastArr map[lqDir]time.Duration
	pending map[*Packet][]int // delivery records per packet, not yet fired
	links   [lqHosts][lqHosts]*Link
	echo    int // handlers that re-send their packet, still to come
	cov     lqCoverage
}

func lqName(i int) string { return fmt.Sprintf("h%d", i) }

func newLQOracle(t testing.TB) *lqOracle {
	o := &lqOracle{
		t:       t,
		s:       NewSim(1),
		lastArr: make(map[lqDir]time.Duration),
		pending: make(map[*Packet][]int),
	}
	for i := range lqHosts {
		o.s.Register(lqName(i), func(p *Packet) { o.deliver(i, p) })
		for j := i + 1; j < lqHosts; j++ {
			// 1–7 ms plus a sub-slot offset, so arrivals tie across
			// directions and land anywhere in a slot.
			d := time.Duration(1+(i*5+j*3)%7)*time.Millisecond + time.Duration((i+j)%3)*300*time.Microsecond
			o.links[i][j] = &Link{Delay: d}
			o.s.Connect(lqName(i), lqName(j), o.links[i][j])
		}
	}
	return o
}

// schedule adds a record for a callback the Sim just took a seq for.
func (o *lqOracle) schedule(at time.Duration, what string) int {
	o.order++
	o.recs = append(o.recs, lqRec{at: at, order: o.order, what: what, src: -1, dst: -1})
	return len(o.recs) - 1
}

// fire checks and logs record id firing now.
func (o *lqOracle) fire(id int) {
	r := &o.recs[id]
	switch {
	case r.fired:
		o.t.Fatalf("%s fired twice", r.what)
	case r.cancelled:
		o.t.Fatalf("%s fired after it was cancelled", r.what)
	case o.s.Now() != r.at:
		o.t.Fatalf("%s fired at %v, scheduled for %v", r.what, o.s.Now(), r.at)
	}
	r.fired = true
	o.fired = append(o.fired, id)
}

// send sends p from host i to host j and, if the Sim admits it, records
// the delivery at the arrival Send's link model gives a delay-only link.
func (o *lqOracle) send(p *Packet, i, j int) bool {
	p.Src, p.Dst, p.SrcEP, p.DstEP = lqName(i), lqName(j), 0, 0
	p.Size = 100
	if !o.s.Send(p) {
		return false
	}
	l := o.links[min(i, j)][max(i, j)]
	dir := lqDir{l, i < j}
	at := max(o.s.Now()+l.Delay, l.PausedUntil, o.lastArr[dir])
	o.lastArr[dir] = at
	id := o.schedule(at, fmt.Sprintf("pkt#%d %d->%d", o.order+1, i, j))
	o.recs[id].src, o.recs[id].dst = i, j
	o.pending[p] = append(o.pending[p], id)
	o.cov.maxBusyDirs = max(o.cov.maxBusyDirs, len(o.busyDirs()))
	return true
}

// busyDirs returns the directions, as (source, destination) host pairs,
// with a delivery pending.
func (o *lqOracle) busyDirs() map[[2]int]bool {
	busy := make(map[[2]int]bool)
	for _, ids := range o.pending {
		for _, id := range ids {
			busy[[2]int{o.recs[id].src, o.recs[id].dst}] = true
		}
	}
	return busy
}

// deliver is host j's receive handler. It fires the earliest pending
// delivery of p to j, which is the one the Sim must be firing, and may
// re-send p back to its source.
func (o *lqOracle) deliver(j int, p *Packet) {
	ids := o.pending[p]
	best := -1
	for k, id := range ids {
		r := &o.recs[id]
		if r.dst != j {
			continue
		}
		if b := &o.recs[ids[max(best, 0)]]; best < 0 || r.at < b.at || r.at == b.at && r.order < b.order {
			best = k
		}
	}
	if best < 0 {
		o.t.Fatalf("host %d handed a packet it has no delivery pending for", j)
	}
	id := ids[best]
	o.pending[p] = append(ids[:best:best], ids[best+1:]...)
	if len(o.pending[p]) == 0 {
		delete(o.pending, p)
	}
	o.fire(id)
	if o.echo > 0 {
		o.echo--
		if o.send(p, j, o.recs[id].src) {
			o.cov.echoes++
		}
	}
}

// lqTimer is a Timer and the record of its live deadline.
type lqTimer struct {
	tm   *Timer
	live int // record id; -1 when stopped
}

// run decodes data into an interleaving — three bytes per op: opcode,
// argument, delta — of sends on every pair, one-shots and cancels, timer
// resets and stops, Disconnect/Connect and pauses with packets in flight,
// a non-pooled packet sent twice, handlers re-sending their packet, Steps
// and RunUntil bounds anywhere in a slot. It then drains the Sim and
// checks the firing sequence.
func (o *lqOracle) run(data []byte) {
	s := o.s
	var timers [4]*lqTimer
	for k := range timers {
		lt := &lqTimer{live: -1}
		lt.tm = s.NewTimer(func() {
			o.fire(lt.live)
			lt.live = -1
		})
		timers[k] = lt
	}
	var oneShots []*Event
	var oneShotIDs []int
	for n := 0; n+2 < len(data); n += 3 {
		a, b := int(data[n+1]), data[n+2]
		i, j := a%lqHosts, (a/lqHosts)%lqHosts
		// From a few µs to ~0.4 s: sub-slot, L0 and L1 territory.
		d := time.Duration(b) * 53 * time.Microsecond << (a % 6)
		switch data[n] % 12 {
		case 0, 1:
			if i != j {
				if p := s.GetPacket(); !o.send(p, i, j) {
					s.PutPacket(p)
				}
			}
		case 2: // a burst from host i to every other host
			for k := range lqHosts {
				if k != i {
					if p := s.GetPacket(); !o.send(p, i, k) {
						s.PutPacket(p)
					}
				}
			}
		case 3:
			id := o.schedule(s.Now()+d, fmt.Sprintf("after#%d", o.order+1))
			oneShots = append(oneShots, s.After(d, func() { o.fire(id) }))
			oneShotIDs = append(oneShotIDs, id)
		case 4:
			if len(oneShots) > 0 {
				k := a % len(oneShots)
				if r := &o.recs[oneShotIDs[k]]; !r.fired && !r.cancelled {
					r.cancelled = true
					o.cov.cancels++
				}
				oneShots[k].Cancel()
			}
		case 5:
			lt := timers[a%len(timers)]
			if lt.live >= 0 {
				if r := &o.recs[lt.live]; s.Now()+d < r.at {
					o.cov.resetEarlier++
				} else {
					o.cov.resetLater++
				}
				o.recs[lt.live].cancelled = true
			}
			lt.tm.Reset(d)
			lt.live = o.schedule(s.Now()+d, fmt.Sprintf("timer%d#%d", a%len(timers), o.order+1))
		case 6:
			lt := timers[a%len(timers)]
			if lt.live >= 0 {
				o.recs[lt.live].cancelled = true
				lt.live = -1
				o.cov.cancels++
			}
			lt.tm.Stop()
		case 7:
			bound := s.Now() + d
			s.RunUntil(bound)
			o.checkBound(bound)
		case 8:
			s.Step()
		case 9: // Disconnect and Connect again, the same link or a fresh copy
			if i == j {
				break
			}
			lo, hi := min(i, j), max(i, j)
			busy := o.busyDirs()
			inFlight := busy[[2]int{i, j}] || busy[[2]int{j, i}]
			s.Disconnect(lqName(i), lqName(j))
			if b%2 == 0 {
				o.links[lo][hi] = &Link{Delay: o.links[lo][hi].Delay + time.Duration(b)*time.Microsecond}
			}
			s.Connect(lqName(j), lqName(i), o.links[lo][hi])
			if inFlight {
				o.cov.reconnects++
			}
		case 10: // a non-pooled packet sent twice while in flight
			if i != j {
				p := &Packet{}
				if o.send(p, i, j) && o.send(p, i, j) {
					o.cov.doubleSends++
				}
			}
		case 11:
			if b%2 == 0 {
				o.echo += a%4 + 1
			} else if i != j {
				l := o.links[min(i, j)][max(i, j)]
				l.PausedUntil = s.Now() + d
			}
		}
	}
	s.Run()
	o.checkBound(s.Now())
	for k := 1; k < len(o.fired); k++ {
		p, c := &o.recs[o.fired[k-1]], &o.recs[o.fired[k]]
		if c.at < p.at || c.at == p.at && c.order < p.order {
			o.t.Fatalf("%s (at %v, order %d) fired after %s (at %v, order %d)", c.what, c.at, c.order, p.what, p.at, p.order)
		}
	}
}

// checkBound asserts what a RunUntil(bound) that has just returned must
// leave: the clock at the bound, and every live callback due by it fired.
func (o *lqOracle) checkBound(bound time.Duration) {
	if now := o.s.Now(); now != bound {
		o.t.Fatalf("RunUntil(%v) left the clock at %v", bound, now)
	}
	midSlot := false
	for k := range o.recs {
		r := &o.recs[k]
		if r.cancelled || r.fired {
			continue
		}
		if r.at <= bound {
			o.t.Fatalf("RunUntil(%v) returned with %s, due at %v, unfired", bound, r.what, r.at)
		}
		if int64(r.at)>>wheelSlotBits == int64(bound)>>wheelSlotBits {
			midSlot = true
		}
	}
	if midSlot {
		o.cov.midSlotStops++
	}
}

// TestLinkQueuesFireInScheduleOrder runs long seeded op streams through
// the oracle: every callback fires once, at its time, in (time, schedule
// order), across link queues, the wheel and the heap's overflow onto the
// wheel. It also checks that each case the streams are meant to cover
// came up.
func TestLinkQueuesFireInScheduleOrder(t *testing.T) {
	var cov lqCoverage
	fired := 0
	for seed := int64(1); seed <= 10; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		o := newLQOracle(t)
		o.run(data)
		fired += len(o.fired)
		c := o.cov
		cov.maxBusyDirs = max(cov.maxBusyDirs, c.maxBusyDirs)
		cov.echoes += c.echoes
		cov.doubleSends += c.doubleSends
		cov.reconnects += c.reconnects
		cov.midSlotStops += c.midSlotStops
		cov.resetEarlier += c.resetEarlier
		cov.resetLater += c.resetLater
		cov.cancels += c.cancels
	}
	if cov.maxBusyDirs <= linkHeapCap {
		t.Errorf("at most %d directions busy at once; the heap holds %d, so the wheel path never ran", cov.maxBusyDirs, linkHeapCap)
	}
	for name, n := range map[string]int{
		"echoes": cov.echoes, "double sends": cov.doubleSends, "reconnects in flight": cov.reconnects,
		"mid-slot stops": cov.midSlotStops, "earlier resets": cov.resetEarlier,
		"later resets": cov.resetLater, "cancels": cov.cancels,
	} {
		if n == 0 {
			t.Errorf("no %s in the seeded streams", name)
		}
	}
	t.Logf("%d firings; %+v", fired, cov)
}

// FuzzLinkQueueOrder feeds arbitrary op streams to the same oracle.
func FuzzLinkQueueOrder(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 1, 0, 2, 2, 0, 7, 0, 200})                    // bursts fill the heap, the rest go to the wheel
	f.Add([]byte{10, 9, 0, 11, 9, 2, 0, 9, 0, 7, 1, 255})                  // a packet twice in flight, echoed
	f.Add([]byte{0, 9, 0, 9, 9, 2, 0, 9, 0, 7, 0, 255})                    // reconnect with a packet in flight
	f.Add([]byte{5, 0, 200, 3, 0, 10, 5, 0, 5, 4, 0, 0, 6, 1, 0, 7, 0, 9}) // timers earlier and later, cancels
	f.Add([]byte{11, 10, 7, 0, 10, 0, 8, 0, 0, 7, 0, 3, 7, 0, 17})         // a pause, Step, mid-slot bounds
	f.Fuzz(func(t *testing.T, data []byte) {
		newLQOracle(t).run(data)
	})
}

// linkFlows builds a Sim with n busy links: each carries one steady flow of
// four packets in flight, sent a quarter of a millisecond apart and re-sent
// by the receiver, over a delay of 1–1.9 ms that differs from its
// neighbours'. It runs the Sim until its pools and wheel slots are warm and
// returns the count of packets delivered so far.
func linkFlows(n int) (s *Sim, delivered *int) {
	s = NewSim(1)
	delivered = new(int)
	for i := range n {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i)
		s.Connect(src, dst, &Link{Delay: time.Millisecond + time.Duration(i%7)*150*time.Microsecond})
		a, d := s.Endpoint(src), s.Endpoint(dst)
		send := func() {
			pkt := s.GetPacket()
			pkt.SrcEP, pkt.DstEP, pkt.Size = a, d, 1400
			if !s.Send(pkt) {
				panic("send refused")
			}
		}
		s.Register(dst, func(*Packet) {
			*delivered++
			send()
		})
		for k := range 4 {
			s.At(time.Duration(k)*250*time.Microsecond, send)
		}
	}
	s.RunUntil(time.Second)
	return s, delivered
}

// BenchmarkSendDeliverLinks is the send/deliver loop at 1 to 512 busy links
// on one Sim: one op is one delivery and the re-send it triggers. Up to
// linkHeapCap links every delivery goes through a link queue; beyond it the
// rest go through the wheel. Its crossover sets linkHeapCap (DESIGN.md
// §2.1).
func BenchmarkSendDeliverLinks(b *testing.B) {
	for _, n := range []int{1, 4, 8, 16, 64, 512} {
		b.Run(fmt.Sprintf("links=%d", n), func(b *testing.B) {
			s, delivered := linkFlows(n)
			start := *delivered
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				s.Step()
			}
			if *delivered == start {
				b.Fatal("no deliveries")
			}
		})
	}
}

// TestSendDeliverLinksZeroAlloc: with more busy links than the heap holds,
// so deliveries go through both the link queues and the wheel, the steady
// state allocates nothing.
func TestSendDeliverLinksZeroAlloc(t *testing.T) {
	const n = 4 * linkHeapCap
	s, delivered := linkFlows(n)
	if s.nlq != linkHeapCap {
		t.Fatalf("%d link queues in the heap, want it full (%d)", s.nlq, linkHeapCap)
	}
	start := *delivered
	if allocs := testing.AllocsPerRun(100, func() {
		for range 256 {
			s.Step()
		}
	}); allocs != 0 {
		t.Fatalf("%d busy links: 256 deliveries allocate %.1f objects", n, allocs)
	}
	if *delivered == start {
		t.Fatal("no deliveries")
	}
}
