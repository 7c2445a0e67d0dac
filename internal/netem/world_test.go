package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestWorldCrossShardDelivery pins the basic cross-shard contract: a
// packet sent over a cross-shard link arrives at the destination shard at
// exactly send-time + Delay, with its fields intact, and is counted once.
func TestWorldCrossShardDelivery(t *testing.T) {
	w := NewWorld(1, 2)
	w.Place("a", 0)
	w.Place("b", 1)
	w.Connect("a", "b", &Link{Delay: 5 * time.Millisecond})

	type got struct {
		src, dst string
		size     int
		payload  any
		at       time.Duration
	}
	var deliveries []got
	w.Register("b", func(p *Packet) {
		deliveries = append(deliveries, got{p.Src, p.Dst, p.Size, p.Payload, w.Shard(1).Now()})
	})

	sa := w.Shard(0)
	sa.At(0, func() {
		if !sa.Send(&Packet{Src: "a", Dst: "b", Size: 700, Payload: "ping"}) {
			t.Error("send refused")
		}
	})
	sa.At(2*time.Millisecond, func() {
		sa.Send(&Packet{Src: "a", Dst: "b", Size: 800})
	})
	w.RunUntil(20 * time.Millisecond)

	want := []got{
		{"a", "b", 700, "ping", 5 * time.Millisecond},
		{"a", "b", 800, nil, 7 * time.Millisecond},
	}
	if !reflect.DeepEqual(deliveries, want) {
		t.Fatalf("deliveries = %+v, want %+v", deliveries, want)
	}
	if w.Now() != 20*time.Millisecond {
		t.Fatalf("world clock = %v", w.Now())
	}
	// Reply direction uses the other half-link with the same delay.
	var back time.Duration
	w.Register("a", func(p *Packet) { back = w.Shard(0).Now() })
	sb := w.Shard(1)
	sb.After(0, func() { sb.Send(&Packet{Src: "b", Dst: "a", Size: 100}) })
	w.RunUntil(40 * time.Millisecond)
	if back != 25*time.Millisecond {
		t.Fatalf("reply arrived at %v, want 25ms", back)
	}
}

// TestWorldCrossShardContract pins the panics that guard the determinism
// contract: zero-delay or randomized cross-shard links, conflicting
// placement, and topology changes after the world started.
func TestWorldCrossShardContract(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	w := NewWorld(1, 2)
	w.Place("a", 0)
	w.Place("b", 1)
	mustPanic("zero-delay cross link", func() { w.Connect("a", "b", &Link{}) })
	mustPanic("jittery cross link", func() { w.Connect("a", "b", &Link{Delay: time.Millisecond, Jitter: time.Millisecond}) })
	mustPanic("lossy cross link", func() { w.Connect("a", "b", &Link{Delay: time.Millisecond, Loss: 0.1}) })
	mustPanic("conflicting placement", func() { w.Place("a", 1) })
	mustPanic("unplaced endpoint", func() { w.Connect("a", "nowhere", &Link{Delay: time.Millisecond}) })
	w.Connect("a", "b", &Link{Delay: time.Millisecond})
	w.RunUntil(time.Millisecond)
	w.Place("c", 0)
	w.Place("d", 1)
	mustPanic("cross connect after start", func() { w.Connect("c", "d", &Link{Delay: time.Millisecond}) })
}

// TestWorldSameShardMatchesPlainSim: a world whose endpoints all share a
// shard must behave exactly like the plain Sim it wraps, whatever K is —
// the property the failover experiment's K-goldens build on.
func TestWorldSameShardMatchesPlainSim(t *testing.T) {
	run := func(newSim func() (*Sim, func(time.Duration))) []string {
		s, drive := newSim()
		var log []string
		s.Connect("x", "y", &Link{Delay: 3 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.2, BandwidthBps: 8e6})
		s.Register("y", func(p *Packet) {
			log = append(log, fmt.Sprintf("%d@%v", p.Size, s.Now()))
		})
		var tick func()
		i := 0
		tick = func() {
			i++
			s.Send(&Packet{Src: "x", Dst: "y", Size: 200 * i})
			if i < 40 {
				s.After(700*time.Microsecond, tick)
			}
		}
		s.At(0, tick)
		drive(60 * time.Millisecond)
		return log
	}
	plain := run(func() (*Sim, func(time.Duration)) {
		s := NewSim(42)
		return s, s.RunUntil
	})
	for _, k := range []int{1, 2, 4, 8} {
		w := NewWorld(42, k)
		got := run(func() (*Sim, func(time.Duration)) {
			return w.Shard(0), w.RunUntil
		})
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("K=%d single-shard world diverged from plain Sim:\n%v\nvs\n%v", k, got, plain)
		}
	}
}

// --- randomized cross-shard schedule/cancel interleaving -----------------

// wop is one pre-generated operation of the randomized world workload.
type wop struct {
	site int
	at   time.Duration
	kind int // 0 = send, 1 = arm a timer, 2 = cancel the newest armed timer
	dst  int // send: neighbor index
	size int
}

// shardNetSites is the fixed site count of the randomized topology: a
// ring with +2 chords, so every site has four neighbors and traffic
// crosses shard boundaries for every K > 1.
const shardNetSites = 6

func shardNetNeighbors(i int) []int {
	s := shardNetSites
	return []int{(i + 1) % s, (i + s - 1) % s, (i + 2) % s, (i + s - 2) % s}
}

// pairDelay gives every unordered site pair a distinct propagation delay
// (µs-scale spread plus a ns residue) so independent event chains don't
// collide on one timestamp — the tie-freedom the canonical merge order
// asks of workloads that want K-independent bytes.
func pairDelay(i, j int) time.Duration {
	if i > j {
		i, j = j, i
	}
	return 5*time.Millisecond + time.Duration(i*211+j*97)*time.Microsecond + time.Duration(i*7+j)*time.Nanosecond
}

// runShardNet executes a pre-generated op schedule on a K-shard world and
// returns each site's delivery/timer log in local event order, plus the
// per-site timestamps of every fired event (for the tie check). Receive
// handlers react deterministically to packet contents — responding,
// arming timers, cancelling timers — so schedule and cancellation chains
// thread across shard boundaries.
func runShardNet(t testing.TB, ops []wop, K int, horizon time.Duration) (map[string][]string, map[string][]time.Duration) {
	w := NewWorld(7, K)
	type site struct {
		name  string
		sim   *Sim
		log   []string
		times []time.Duration
		armed []*Event
	}
	sites := make([]*site, shardNetSites)
	for i := range sites {
		name := fmt.Sprintf("site-%d", i)
		w.Place(name, i%K)
		sites[i] = &site{name: name}
	}
	for i := range sites {
		sites[i].sim = w.ShardFor(sites[i].name)
		for _, j := range shardNetNeighbors(i) {
			if i < j {
				w.Connect(sites[i].name, sites[j].name, &Link{Delay: pairDelay(i, j)})
			}
		}
	}
	arm := func(st *site, fireIn time.Duration, tag int) {
		at := st.sim.Now() + fireIn
		ev := st.sim.At(at, func() {
			st.times = append(st.times, st.sim.Now())
			st.log = append(st.log, fmt.Sprintf("timer %d @%v", tag, st.sim.Now()))
			// Fired timers forward to a deterministic neighbor, so timer
			// chains also cross shards.
			nb := shardNetNeighbors(indexOfSite(st.name))[tag%4]
			st.sim.Send(&Packet{Src: st.name, Dst: sites[nb].name, Size: 30 + tag%7})
		})
		st.armed = append(st.armed, ev)
	}
	cancelNewest := func(st *site) {
		for n := len(st.armed); n > 0; n = len(st.armed) {
			ev := st.armed[n-1]
			st.armed = st.armed[:n-1]
			if !ev.Cancelled() {
				ev.Cancel()
				st.log = append(st.log, fmt.Sprintf("cancel @%v", st.sim.Now()))
				return
			}
		}
	}
	for i := range sites {
		st := sites[i]
		i := i
		w.Register(st.name, func(p *Packet) {
			st.times = append(st.times, st.sim.Now())
			st.log = append(st.log, fmt.Sprintf("%s->%s %d @%v", p.Src, p.Dst, p.Size, st.sim.Now()))
			switch {
			case p.Size >= 64 && p.Size%3 == 0:
				// Bounce a shrinking response back across the link.
				st.sim.Send(&Packet{Src: st.name, Dst: p.Src, Size: p.Size / 2})
			case p.Size%5 == 0:
				cancelNewest(st)
			case p.Size%7 == 0:
				arm(st, time.Duration(p.Size)*101*time.Microsecond+time.Duration(i)*time.Nanosecond, p.Size)
			}
		})
	}
	for idx, op := range ops {
		st := sites[op.site]
		op := op
		switch op.kind {
		case 0:
			dst := sites[shardNetNeighbors(op.site)[op.dst%4]]
			st.sim.At(op.at, func() {
				st.times = append(st.times, st.sim.Now())
				st.sim.Send(&Packet{Src: st.name, Dst: dst.name, Size: op.size})
			})
		case 1:
			tag := idx
			st.sim.At(op.at, func() {
				st.times = append(st.times, st.sim.Now())
				arm(st, time.Duration(op.size)*89*time.Microsecond+time.Duration(idx)*time.Nanosecond, tag)
			})
		default:
			st.sim.At(op.at, func() {
				st.times = append(st.times, st.sim.Now())
				cancelNewest(st)
			})
		}
	}
	w.RunUntil(horizon)
	out := make(map[string][]string, len(sites))
	times := make(map[string][]time.Duration, len(sites))
	for _, st := range sites {
		out[st.name] = st.log
		times[st.name] = st.times
	}
	return out, times
}

func indexOfSite(name string) int {
	var i int
	fmt.Sscanf(name, "site-%d", &i)
	return i
}

// hasTimestampTie reports whether any site fired two events at one
// instant — the one situation where the canonical (at, srcShard, seq)
// merge order is allowed to differ from a single Sim's (at, seq) order.
// Workloads under the byte-identity contract must avoid it, and the
// generators below are checked against the K=1 oracle for it.
func hasTimestampTie(times map[string][]time.Duration) bool {
	for _, ts := range times {
		seen := map[time.Duration]bool{}
		for _, at := range ts {
			if seen[at] {
				return true
			}
			seen[at] = true
		}
	}
	return false
}

// genOps builds a randomized schedule: sends, timer arms, and cancels at
// unique instants (µs-random plus an op-index ns residue).
func genOps(rng *rand.Rand, n int) []wop {
	ops := make([]wop, n)
	for i := range ops {
		ops[i] = wop{
			site: rng.Intn(shardNetSites),
			at:   time.Duration(rng.Intn(150_000))*time.Microsecond + time.Duration(i+1)*time.Nanosecond,
			kind: rng.Intn(3),
			dst:  rng.Intn(4),
			size: 20 + rng.Intn(2000),
		}
	}
	return ops
}

// TestWorldKEquivalenceRandomInterleaving is the randomized cross-shard
// schedule/cancel interleaving golden: the same op schedule must produce
// identical per-site logs for K ∈ {1, 2, 3, 4, 8}, with K=1 as the
// oracle (mirroring the wheel-vs-heap strategy of PR 6).
func TestWorldKEquivalenceRandomInterleaving(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 99} {
		rng := rand.New(rand.NewSource(seed))
		ops := genOps(rng, 120)
		oracle, times := runShardNet(t, ops, 1, 2*time.Second)
		if hasTimestampTie(times) {
			t.Fatalf("seed %d: generator produced a timestamp tie; pick offsets that keep instants unique", seed)
		}
		total := 0
		for _, log := range oracle {
			total += len(log)
		}
		if total < 100 {
			t.Fatalf("seed %d: workload too quiet (%d events) to be a meaningful golden", seed, total)
		}
		for _, k := range []int{2, 3, 4, 8} {
			got, _ := runShardNet(t, ops, k, 2*time.Second)
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("seed %d: K=%d diverged from the K=1 oracle\nK=%d: %v\nK=1: %v", seed, k, k, got, oracle)
			}
		}
	}
}

// FuzzWorldOrder fuzzes op schedules and demands K=3 output equal to the
// K=1 oracle. Schedules that happen to produce a timestamp tie are
// skipped: tie ordering across source shards is outside the byte-identity
// contract (documented on World).
func FuzzWorldOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 40, 1, 1, 80, 2, 2, 120, 3, 0, 33})
	f.Add([]byte{250, 13, 77, 14, 99, 3, 160, 5, 0, 220, 21, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []wop
		for i := 0; i+2 < len(data) && len(ops) < 200; i += 3 {
			ops = append(ops, wop{
				site: int(data[i]) % shardNetSites,
				at:   time.Duration(data[i+1])*997*time.Microsecond + time.Duration(len(ops)+1)*time.Nanosecond,
				kind: int(data[i]/7) % 3,
				dst:  int(data[i+2]) % 4,
				size: 20 + int(data[i+2])*7,
			})
		}
		if len(ops) == 0 {
			return
		}
		oracle, times := runShardNet(t, ops, 1, 2*time.Second)
		if hasTimestampTie(times) {
			t.Skip("tie-ambiguous schedule")
		}
		got, _ := runShardNet(t, ops, 3, 2*time.Second)
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("K=3 diverged from K=1 oracle\nK=3: %v\nK=1: %v", got, oracle)
		}
	})
}

// TestWorldShardedZeroAllocSend: the cross-shard steady state — send,
// mailbox park, barrier merge, inject, deliver — must allocate nothing.
// Worker fan-out is forced serial here (its per-window goroutine costs
// are amortized and measured by BenchmarkSendDeliverSharded instead).
func TestWorldShardedZeroAllocSend(t *testing.T) {
	w := NewWorld(1, 2)
	w.Place("a", 0)
	w.Place("b", 1)
	w.Connect("a", "b", &Link{Delay: time.Millisecond})
	w.Register("b", func(*Packet) {})
	w.workers = 1
	s := w.Shard(0)
	a, b := s.Endpoint("a"), s.Endpoint("b")
	window := func() {
		for i := 0; i < 64; i++ {
			pkt := s.GetPacket()
			pkt.SrcEP, pkt.DstEP = a, b
			pkt.Src, pkt.Dst = "a", "b"
			pkt.Size = 1400
			if !s.Send(pkt) {
				t.Fatal("send refused")
			}
		}
		w.RunUntil(w.Now() + time.Millisecond)
	}
	for i := 0; i < 512; i++ { // warm pools, mailboxes, and every wheel slot
		window()
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("steady-state sharded send/deliver allocates %.1f objects/window", allocs)
	}
}

// BenchmarkSendDeliverSharded measures the cross-shard hot path per
// packet: 64-packet windows through the mailbox barrier. Reported
// allocs/op must stay 0 (CI gates every BenchmarkSendDeliver* on it);
// per-window worker/barrier costs amortize across the batch.
func BenchmarkSendDeliverSharded(b *testing.B) {
	w := NewWorld(1, 2)
	w.Place("a", 0)
	w.Place("b", 1)
	w.Connect("a", "b", &Link{Delay: time.Millisecond})
	delivered := 0
	w.Register("b", func(*Packet) { delivered++ })
	s := w.Shard(0)
	a, bEP := s.Endpoint("a"), s.Endpoint("b")
	const batch = 64
	window := func() {
		for i := 0; i < batch; i++ {
			pkt := s.GetPacket()
			pkt.SrcEP, pkt.DstEP = a, bEP
			pkt.Src, pkt.Dst = "a", "b"
			pkt.Size = 1400
			if !s.Send(pkt) {
				b.Fatal("send refused")
			}
		}
		w.RunUntil(w.Now() + time.Millisecond)
	}
	for i := 0; i < 512; i++ {
		window()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		window()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
}

// busyFlow is one shard's bulk flow in BenchmarkWorldBusyShards. It is
// padded like a Sim so the benchmark itself adds no shared cache line.
type busyFlow struct {
	_         cachePad
	link      Link
	delivered int
	_         cachePad
}

// BenchmarkWorldBusyShards keeps every shard busy at once: one steady bulk
// flow inside each of two shards, 64 packets in flight on a 200 µs link and
// re-sent from the receive handler, with an idle cross-shard link that sets
// a 10 ms window. K=1 runs both flows on one shard. ns/pkt is wall time per
// delivered packet. BenchmarkSendDeliverSharded keeps only shard 0 busy, so
// it cannot see shards contending for a cache line; this one can.
func BenchmarkWorldBusyShards(b *testing.B) {
	const inflight = 64
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			w := NewWorld(1, k)
			flows := make([]*busyFlow, 2)
			for i := range flows {
				f := &busyFlow{link: Link{Delay: 200 * time.Microsecond}}
				flows[i] = f
				src, dst := fmt.Sprintf("src-%d", i), fmt.Sprintf("dst-%d", i)
				w.Place(src, i%k)
				w.Place(dst, i%k)
				w.Connect(src, dst, &f.link)
				s := w.ShardFor(src)
				a, d := s.Endpoint(src), s.Endpoint(dst)
				send := func() {
					pkt := s.GetPacket()
					pkt.SrcEP, pkt.DstEP, pkt.Size = a, d, 1400
					if !s.Send(pkt) {
						panic("send refused")
					}
				}
				w.Register(dst, func(*Packet) {
					f.delivered++
					send()
				})
				for range inflight {
					send()
				}
			}
			w.Connect("src-0", "src-1", &Link{Delay: 10 * time.Millisecond})
			total := func() (n int) {
				for _, f := range flows {
					n += f.delivered
				}
				return n
			}
			window := func() { w.RunUntil(w.Now() + 10*time.Millisecond) }
			for range 30 { // warm pools and every L0 slot
				window()
			}
			start := total()
			b.ReportAllocs()
			b.ResetTimer()
			for total()-start < b.N {
				window()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total()-start), "ns/pkt")
		})
	}
}

// span is the address range [lo, hi) of one shard's per-event state.
type span struct {
	shard  int
	what   string
	lo, hi uintptr
}

// fieldSpan covers the named fields of the struct p points to: everything
// but its blank padding.
func fieldSpan(shard int, what string, p any) span {
	v := reflect.ValueOf(p).Elem()
	base := v.UnsafeAddr()
	sp := span{shard: shard, what: what, lo: ^uintptr(0)}
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Name == "_" {
			continue
		}
		sp.lo = min(sp.lo, base+f.Offset)
		sp.hi = max(sp.hi, base+f.Offset+f.Type.Size())
	}
	return sp
}

// TestShardsShareNoCacheLine pins the layout rule of DESIGN.md §2.2: the
// state a shard writes per event — its Sim, its wheel and its mailbox row —
// sits at least cacheLinePad bytes from every other shard's.
func TestShardsShareNoCacheLine(t *testing.T) {
	for _, k := range []int{2, 4} {
		w := NewWorld(1, k)
		var spans []span
		for i, s := range w.shards {
			tw, ok := s.sched.(*timingWheel)
			if !ok {
				t.Fatalf("shard %d runs %T, want the timing wheel", i, s.sched)
			}
			row := w.mail[i]
			lo := uintptr(unsafe.Pointer(&row[0]))
			spans = append(spans,
				fieldSpan(i, "Sim", s),
				fieldSpan(i, "wheel", tw),
				span{i, "mailbox row", lo, lo + uintptr(len(row))*unsafe.Sizeof(row[0])})
		}
		for _, a := range spans {
			for _, b := range spans {
				if a.shard >= b.shard {
					continue
				}
				gap := max(int64(b.lo)-int64(a.hi), int64(a.lo)-int64(b.hi))
				if gap < cacheLinePad {
					t.Errorf("K=%d: shard %d's %s and shard %d's %s are %d B apart, want ≥ %d",
						k, a.shard, a.what, b.shard, b.what, gap, cacheLinePad)
				}
			}
		}
	}
}

// TestClampShards pins the GOMAXPROCS clamp benchmarks and CLIs use.
func TestClampShards(t *testing.T) {
	for _, k := range []int{-3, 0} {
		if got := ClampShards(k); got != 1 {
			t.Fatalf("ClampShards(%d) = %d, want 1", k, got)
		}
	}
	if got := ClampShards(1); got != 1 {
		t.Fatalf("ClampShards(1) = %d, want 1", got)
	}
	if got, max := ClampShards(1<<20), runtime.GOMAXPROCS(0); got != max {
		t.Fatalf("ClampShards(1<<20) = %d, want GOMAXPROCS %d", got, max)
	}
}
