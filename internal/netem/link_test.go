package netem

import (
	"math/rand"
	"testing"
	"time"
)

// Drop accounting is what the chaos harness and the failover experiment
// read to attribute outages, so each counter must tick for exactly its own
// drop cause.

func TestStatsDroppedLoss(t *testing.T) {
	s := NewSim(1)
	l := &Link{Loss: 1.0}
	s.Connect("a", "b", l)
	s.Register("b", func(p *Packet) {})
	for i := 0; i < 10; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 100})
	}
	st := l.stats
	if st.DroppedLoss != 10 {
		t.Fatalf("DroppedLoss = %d, want 10", st.DroppedLoss)
	}
	if st.DroppedDown != 0 || st.DroppedQueue != 0 || st.Sent != 0 {
		t.Fatalf("loss drops leaked into other counters: %+v", st)
	}
}

func TestStatsDroppedDown(t *testing.T) {
	s := NewSim(1)
	l := &Link{Down: true}
	s.Connect("a", "b", l)
	s.Register("b", func(p *Packet) {})
	for i := 0; i < 7; i++ {
		if s.Send(&Packet{Src: "a", Dst: "b", Size: 100}) {
			t.Fatal("down link admitted a packet")
		}
	}
	st := l.stats
	if st.DroppedDown != 7 {
		t.Fatalf("DroppedDown = %d, want 7", st.DroppedDown)
	}
	if st.DroppedLoss != 0 || st.DroppedQueue != 0 {
		t.Fatalf("down drops leaked into other counters: %+v", st)
	}

	// Flap the link back up: traffic and the Sent counter resume.
	l.Down = false
	if !s.Send(&Packet{Src: "a", Dst: "b", Size: 100}) {
		t.Fatal("restored link rejected a packet")
	}
	if st := l.stats; st.Sent != 1 {
		t.Fatalf("Sent = %d after restore, want 1", st.Sent)
	}
}

func TestStatsDroppedQueueBandwidth(t *testing.T) {
	s := NewSim(1)
	// 8 kbit/s with a 10 ms queue budget: a 1000-byte packet takes 1 s to
	// serialize, so the second packet already exceeds the queue bound.
	l := &Link{BandwidthBps: 8000, MaxQueue: 10 * time.Millisecond}
	s.Connect("a", "b", l)
	s.Register("b", func(p *Packet) {})
	admitted := 0
	for i := 0; i < 5; i++ {
		if s.Send(&Packet{Src: "a", Dst: "b", Size: 1000}) {
			admitted++
		}
	}
	st := l.stats
	if admitted != 1 || st.DroppedQueue != 4 {
		t.Fatalf("admitted=%d DroppedQueue=%d, want 1 and 4 (stats %+v)", admitted, st.DroppedQueue, st)
	}
}

func TestStatsDroppedQueueShaperZeroRate(t *testing.T) {
	s := NewSim(1)
	// A shaper whose rate schedule hits zero models a dead policer
	// interval: every packet is dropped and accounted as a queue drop.
	l := &Link{ShaperAB: NewShaper(func(time.Duration) float64 { return 0 }, 1024, 1024)}
	s.Connect("a", "b", l)
	s.Register("b", func(p *Packet) {})
	for i := 0; i < 3; i++ {
		if s.Send(&Packet{Src: "a", Dst: "b", Size: 100}) {
			t.Fatal("zero-rate shaper admitted a packet")
		}
	}
	if st := l.stats; st.DroppedQueue != 3 {
		t.Fatalf("DroppedQueue = %d, want 3", st.DroppedQueue)
	}
}

func TestStatsDroppedQueueShaperOverload(t *testing.T) {
	s := NewSim(1)
	// 80 kbit/s, tiny burst and queue: a burst of large packets overruns
	// the queue-time bound and the tail is dropped.
	l := &Link{ShaperAB: NewShaper(func(time.Duration) float64 { return 80e3 }, 1024, 4*1024)}
	s.Connect("a", "b", l)
	got := 0
	s.Register("b", func(p *Packet) { got++ })
	sent := 0
	for i := 0; i < 50; i++ {
		if s.Send(&Packet{Src: "a", Dst: "b", Size: 1500}) {
			sent++
		}
	}
	run(s)
	st := l.stats
	if st.DroppedQueue == 0 {
		t.Fatalf("expected shaper queue drops, stats %+v", st)
	}
	if uint64(sent) != st.Sent || got != sent {
		t.Fatalf("admitted %d, Sent %d, delivered %d — counters disagree (%+v)", sent, st.Sent, got, st)
	}
	if st.DroppedQueue+st.Sent != 50 {
		t.Fatalf("drops (%d) + sent (%d) != offered 50", st.DroppedQueue, st.Sent)
	}
}

// The queue-bound precedence contract (see the Shaper doc): a nonzero
// MaxQueueTime always wins; MaxQueueBytes applies only when the sojourn
// bound is zero. A sojourn-only Shaper used to be misconfigured through
// NewShaper (which force-defaults the byte bound); newShaperSojourn and
// these tests pin the fixed behaviour.

// flat returns a constant-rate schedule.
func flat(bps float64) RateFunc { return func(time.Duration) float64 { return bps } }

func TestShaperSojournBoundWinsOverBytes(t *testing.T) {
	// 100 KB/s, 1000 B burst (= 10 ms of credit), a 10 ms sojourn bound,
	// and a byte bound so large it would never drop. Each 1000 B packet
	// adds 10 ms of backlog, so the sojourn bound must cut in at 20 ms of
	// queued time regardless of the byte bound.
	sh := &Shaper{
		Rate:          flat(8e5),
		BucketBytes:   1000,
		MaxQueueBytes: 1 << 30,
		MaxQueueTime:  10 * time.Millisecond,
	}
	// Admit at t=20 ms: the shaper has been idle past its burst window,
	// so the full 10 ms bucket credit is available.
	admitted := 0
	for i := 0; i < 8; i++ {
		if _, drop := sh.admit(20*time.Millisecond, 1000); !drop {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("sojourn bound admitted %d packets, want 3 (burst + 2 queued)", admitted)
	}
}

func TestShaperByteBoundAppliesWhenSojournZero(t *testing.T) {
	// Same shaper with the sojourn bound cleared: the 2500 B byte bound
	// (25 ms at this rate) now governs, admitting one more packet.
	sh := &Shaper{
		Rate:          flat(8e5),
		BucketBytes:   1000,
		MaxQueueBytes: 2500,
	}
	admitted := 0
	for i := 0; i < 8; i++ {
		if _, drop := sh.admit(20*time.Millisecond, 1000); !drop {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("byte bound admitted %d packets, want 4", admitted)
	}
}

func TestShaperLiteralBothZeroBurstOnly(t *testing.T) {
	// Documented corner: a literal with both bounds zero is a burst-only
	// policer — packets ride the bucket credit but nothing may queue
	// (constructor defaults are not applied retroactively).
	sh := &Shaper{Rate: flat(8e5), BucketBytes: 1000}
	admitted := 0
	for i := 0; i < 8; i++ {
		if _, drop := sh.admit(20*time.Millisecond, 1000); !drop {
			admitted++
		}
	}
	// 10 ms of credit plus the packet landing exactly on the now-boundary.
	if admitted != 2 {
		t.Fatalf("burst-only shaper admitted %d packets, want 2", admitted)
	}
}

func TestNewShaperSojournDefaults(t *testing.T) {
	sh := newShaperSojourn(flat(8e5), 0, 0)
	if sh.BucketBytes != 32*1024 {
		t.Fatalf("BucketBytes = %v, want 32 KB default", sh.BucketBytes)
	}
	if sh.MaxQueueTime != 100*time.Millisecond {
		t.Fatalf("MaxQueueTime = %v, want 100 ms default", sh.MaxQueueTime)
	}
	if sh.MaxQueueBytes != 0 {
		t.Fatalf("MaxQueueBytes = %d, want 0 (sojourn bound governs)", sh.MaxQueueBytes)
	}
}

func TestShaperSojournOnLink(t *testing.T) {
	s := NewSim(1)
	// Sojourn-bounded shaper on the A->B direction: a burst overruns the
	// 5 ms bound and the tail lands in DroppedQueue.
	l := &Link{ShaperAB: newShaperSojourn(flat(80e3), 1024, 5*time.Millisecond)}
	s.Connect("a", "b", l)
	got := 0
	s.Register("b", func(*Packet) { got++ })
	sent := 0
	for i := 0; i < 50; i++ {
		if s.Send(&Packet{Src: "a", Dst: "b", Size: 1500}) {
			sent++
		}
	}
	run(s)
	st := l.stats
	if st.DroppedQueue == 0 || st.DroppedQueue+st.Sent != 50 {
		t.Fatalf("stats %+v: want sojourn drops and drops+sent == 50", st)
	}
	if got != sent {
		t.Fatalf("delivered %d of %d admitted", got, sent)
	}
}

func TestShaperDirectionSurvivesConnectOrder(t *testing.T) {
	// The A direction is defined by lexicographic name order, not by the
	// argument order of Connect. With endpoint interning the direction
	// bit is derived from stored handles, so Connect("b", "a") must
	// shape exactly like Connect("a", "b").
	for _, swap := range []bool{false, true} {
		s := NewSim(1)
		l := &Link{ShaperAB: NewShaper(flat(0), 1, 1)} // zero rate: drops everything a->b
		if swap {
			s.Connect("b", "a", l)
		} else {
			s.Connect("a", "b", l)
		}
		s.Register("a", func(*Packet) {})
		s.Register("b", func(*Packet) {})
		if s.Send(&Packet{Src: "a", Dst: "b", Size: 100}) {
			t.Fatalf("swap=%v: a->b escaped the AB shaper", swap)
		}
		if !s.Send(&Packet{Src: "b", Dst: "a", Size: 100}) {
			t.Fatalf("swap=%v: b->a hit the AB shaper", swap)
		}
	}
}

// TestNightRateMemoIsQueryOrderIndependent: the rate memo must not change
// what Rate returns — revisiting an earlier epoch after a later one gives
// the same draw a fresh policy computes.
func TestNightRateMemoIsQueryOrderIndependent(t *testing.T) {
	memo := NewDefaultDayNightPolicy(5)
	night := 12 * time.Hour // 01:00 from the 13:00 anchor
	for _, epoch := range []int{3, 3, 7, 3, 0, 7} {
		at := night + time.Duration(epoch)*memo.NightEpoch + time.Second
		if got, want := memo.Rate(at), NewDefaultDayNightPolicy(5).Rate(at); got != want {
			t.Fatalf("epoch %d: memoized rate %v, fresh policy %v", epoch, got, want)
		}
	}
}

// rateRef is DayNightPolicy.Rate without its memo: the formula every memo
// answer must equal.
func rateRef(p *DayNightPolicy, t time.Duration) float64 {
	if p.IsDay(t) {
		return p.DayRateBps
	}
	return p.nightRate(t)
}

// TestDayNightRateMemoMatchesFormula sweeps densely across 00:30, 06:00 and
// night-epoch boundaries at both anchors mobility uses (sim time 0 at 01:00
// and at 13:00), asking each instant twice and then an earlier one, so
// the memo is hit, left forwards, and left backwards.
func TestDayNightRateMemoMatchesFormula(t *testing.T) {
	const day = 24 * time.Hour
	for _, start := range []time.Duration{time.Hour, 13 * time.Hour} {
		p := NewDefaultDayNightPolicy(7)
		p.ClockStart = start
		var at []time.Duration
		for _, tod := range []time.Duration{p.SwitchOff, p.SwitchOn} {
			b := (tod - start + day) % day // first sim instant at that time of day
			for _, edge := range []time.Duration{b, b + day} {
				for d := -3 * time.Minute; d <= 3*time.Minute; d += 997 * time.Millisecond {
					at = append(at, edge+d)
				}
				at = append(at, edge-1, edge, edge+1)
			}
		}
		for k := time.Duration(0); k < 40; k++ { // epoch boundaries, by night and by day
			for _, base := range []time.Duration{(p.SwitchOff - start + day) % day, 0} {
				e := base/p.NightEpoch*p.NightEpoch + k*p.NightEpoch
				at = append(at, e-1, e, e+1)
			}
		}
		rng := rand.New(rand.NewSource(int64(start)))
		for i, tm := range at {
			back := tm - time.Duration(rng.Int63n(int64(40*time.Second)))
			for _, q := range []time.Duration{tm, tm, back, at[rng.Intn(i+1)]} {
				if q < 0 {
					continue
				}
				if got, want := p.Rate(q), rateRef(p, q); got != want {
					t.Fatalf("ClockStart %v, t=%v (after %v): memo %v, formula %v", start, q, tm, got, want)
				}
			}
		}
	}
}

// shaperRef is the Shaper that works out every rate term on every packet:
// the arithmetic admit's once-per-rate terms must reproduce bit for bit.
type shaperRef struct {
	Shaper
}

func (sh *shaperRef) admit(now time.Duration, size int) (time.Duration, bool) {
	rate := sh.Rate(now)
	if rate <= 0 {
		return 0, true
	}
	bytesPerSec := rate / 8
	burstTime := time.Duration(sh.BucketBytes / bytesPerSec * float64(time.Second))
	if sh.busyUntil < now-burstTime {
		sh.busyUntil = now - burstTime
	}
	maxQueueTime := sh.MaxQueueTime
	if maxQueueTime == 0 {
		maxQueueTime = time.Duration(float64(sh.MaxQueueBytes) / bytesPerSec * float64(time.Second))
	}
	if sh.busyUntil-now > maxQueueTime {
		return 0, true
	}
	sh.busyUntil += time.Duration(float64(size) / bytesPerSec * float64(time.Second))
	if sh.busyUntil <= now {
		return 0, false
	}
	return sh.busyUntil - now, false
}

// TestShaperRateTermsMatchPerPacketReference: with a schedule whose answer
// changes every k packets — back to an earlier rate, through zero, to an
// odd float — admit yields the (delay, drop) sequence of the reference
// that recomputes every term, under both queue bounds.
func TestShaperRateTermsMatchPerPacketReference(t *testing.T) {
	rates := []float64{8e5, 20e6, 8e5, 0, 1.2e6, 1.2e6, 52.5e6 / 3, 0.2e6}
	schedule := func(k int) RateFunc {
		n := 0
		return func(time.Duration) float64 {
			r := rates[n/k%len(rates)]
			n++
			return r
		}
	}
	for _, k := range []int{1, 3, 17} {
		for _, bound := range []struct {
			bytes int
			time  time.Duration
		}{{256 * 1024, 0}, {0, 600 * time.Millisecond}} {
			mk := func() Shaper {
				return Shaper{Rate: schedule(k), BucketBytes: 32 * 1024, MaxQueueBytes: bound.bytes, MaxQueueTime: bound.time}
			}
			sh, ref := mk(), shaperRef{mk()}
			rng := rand.New(rand.NewSource(int64(k)))
			var now time.Duration
			for i := 0; i < 4000; i++ {
				now += time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
				if rng.Intn(50) == 0 {
					now += time.Second // idle: burst credit refills
				}
				size := 40 + rng.Intn(1400)
				d, drop := sh.admit(now, size)
				wd, wdrop := ref.admit(now, size)
				if d != wd || drop != wdrop {
					t.Fatalf("k=%d bound=%+v packet %d: admit (%v, %v), reference (%v, %v)", k, bound, i, d, drop, wd, wdrop)
				}
			}
		}
	}
}

// TestShaperTxMemoMatchesReference: the per-(rate, size) transmit-time
// memo against the reference that divides on every packet, on a drive's
// packet mix — runs of MSS data and of ACKs, sizes 1432 and 52 — with the
// rate changed between two packets of the same size (so a stale memo would
// answer), through zero, back to an earlier rate, and with a 0-byte packet
// straight after a change (the memo's cleared state).
func TestShaperTxMemoMatchesReference(t *testing.T) {
	rates := []float64{14.5e6, 20e6, 14.5e6, 0, 0.2e6, 52.5e6 / 3, 1.2e6}
	for _, bound := range []struct {
		bytes int
		time  time.Duration
	}{{256 * 1024, 0}, {0, 600 * time.Millisecond}} {
		rate := rates[0]
		mk := func() Shaper {
			return Shaper{Rate: func(time.Duration) float64 { return rate }, BucketBytes: 1200 * 1024,
				MaxQueueBytes: bound.bytes, MaxQueueTime: bound.time}
		}
		sh, ref := mk(), shaperRef{mk()}
		rng := rand.New(rand.NewSource(11))
		var now time.Duration
		size, changes := 1432, 0
		for i := 0; i < 20_000; i++ {
			now += time.Duration(rng.Int63n(int64(time.Millisecond)))
			switch r := rng.Intn(40); {
			case r < 8: // end the run: the other size
				size = 1432 + 52 - size
			case r == 8: // same size as the last packet, new rate
				rate = rates[rng.Intn(len(rates))]
				changes++
			case r == 9:
				rate = rates[rng.Intn(len(rates))]
				size = 0
				changes++
			default:
				if size == 0 {
					size = 52
				}
			}
			d, drop := sh.admit(now, size)
			wd, wdrop := ref.admit(now, size)
			if d != wd || drop != wdrop {
				t.Fatalf("bound=%+v packet %d (size %d, rate %v): admit (%v, %v), reference (%v, %v)",
					bound, i, size, rate, d, drop, wd, wdrop)
			}
		}
		if changes < 500 {
			t.Fatalf("only %d rate changes", changes)
		}
	}
}

// lossySend returns one packet of a drive on a drive-shaped link — Downtown's
// delay and jitter, 1 % loss, a night DayNightPolicy shaper pair with a
// 600 ms sojourn bound, MaxQueue 2 s — as GetPacket + Send + Step: MSS data
// one way, an ACK the other, alternately. Every Send draws the loss and
// jitter and passes a shaper. delivered counts the packets that arrived.
func lossySend(delivered *int) func() {
	s := NewSim(1)
	p := NewDefaultDayNightPolicy(1)
	p.ClockStart = time.Hour
	pair := [2]*Shaper{}
	for i := range pair {
		pair[i] = NewShaper(p.Rate, 1200*1024, 0)
		pair[i].MaxQueueTime = 600 * time.Millisecond
	}
	s.Connect("ue", "srv", &Link{Delay: 24 * time.Millisecond, Jitter: 4 * time.Millisecond, Loss: 0.01,
		MaxQueue: 2 * time.Second, ShaperAB: pair[0], ShaperBA: pair[1]})
	s.Register("ue", func(*Packet) { *delivered++ })
	s.Register("srv", func(*Packet) { *delivered++ })
	ue, srv := s.Endpoint("ue"), s.Endpoint("srv")
	n := 0
	return func() {
		pkt := s.GetPacket()
		if n++; n&1 == 0 {
			pkt.SrcEP, pkt.DstEP, pkt.Size = srv, ue, 1432
		} else {
			pkt.SrcEP, pkt.DstEP, pkt.Size = ue, srv, 52
		}
		if !s.Send(pkt) {
			s.PutPacket(pkt) // lost or dropped: still the sender's
		}
		s.Step()
	}
}

// TestSendDeliverLossyZeroAlloc: on the drive's link, with every loss and
// jitter draw and shaper admit on the path, the pooled send/deliver loop
// allocates nothing once one slab of events and packets is out.
func TestSendDeliverLossyZeroAlloc(t *testing.T) {
	delivered := 0
	send := lossySend(&delivered)
	for i := 0; i < poolSlab; i++ {
		send()
	}
	burst := func() {
		for range 256 {
			send()
		}
	}
	if allocs := testing.AllocsPerRun(3, burst); allocs != 0 {
		t.Fatalf("lossy send/deliver allocates %.1f objects per 256 packets", allocs)
	}
	if sent := poolSlab + 4*256; delivered < sent*9/10 {
		t.Fatalf("%d of %d packets delivered", delivered, sent)
	}
}

// BenchmarkSendDeliverLossy is BenchmarkSendDeliver on the drive's link:
// the per-packet cost of the loss and jitter draws and the shaper on top of
// the pooled hot path. TestSendDeliverLossyZeroAlloc holds it at 0 allocs/op.
func BenchmarkSendDeliverLossy(b *testing.B) {
	delivered := 0
	send := lossySend(&delivered)
	for i := 0; i < poolSlab; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// nightAdmit returns the operator policer at night, where the rate is a
// per-epoch lognormal draw, as one admit per call, packets 500 µs apart
// (about 40 epochs per 1M calls).
func nightAdmit() func() {
	p := NewDefaultDayNightPolicy(1)
	p.ClockStart = time.Hour
	sh := NewShaper(p.Rate, 0, 0)
	var now time.Duration
	return func() {
		now += 500 * time.Microsecond
		sh.admit(now, 1432)
	}
}

// BenchmarkShaperAdmitNight is the per-packet cost of the night policer.
func BenchmarkShaperAdmitNight(b *testing.B) {
	admit := nightAdmit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit()
	}
}

// TestShaperAdmitNightZeroAlloc: the night policer allocates nothing per
// packet, across the ~8 epochs 200,000 packets span.
func TestShaperAdmitNightZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(200_000, nightAdmit()); allocs != 0 {
		t.Fatalf("night admit allocates %.1f objects per packet", allocs)
	}
}

// newShaperSojourn builds a shaper whose queue is bounded by sojourn time
// (the AQM-style bound): a packet that would wait longer than maxQueue is
// dropped. The same 32 KB burst default applies; maxQueue <= 0 selects
// 100 ms. The sojourn bound takes precedence, so MaxQueueBytes is left
// zero here and ignored by admit.
func newShaperSojourn(rate RateFunc, burstBytes int, maxQueue time.Duration) *Shaper {
	if burstBytes <= 0 {
		burstBytes = 32 * 1024
	}
	if maxQueue <= 0 {
		maxQueue = 100 * time.Millisecond
	}
	return &Shaper{
		Rate:         rate,
		BucketBytes:  float64(burstBytes),
		MaxQueueTime: maxQueue,
	}
}
