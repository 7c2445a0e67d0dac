package mptcp

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"cellbricks/internal/mobility"
	"cellbricks/internal/netem"
)

// bulkWorld wires a server and client through one bottleneck link.
func bulkWorld(seed int64, bwBps float64, delay time.Duration, loss float64) (*netem.Sim, *netem.Link) {
	sim := netem.NewSim(seed)
	link := &netem.Link{Delay: delay, Loss: loss, BandwidthBps: bwBps}
	sim.Connect("server", "client", link)
	return sim, link
}

func TestBulkTransferSaturatesLink(t *testing.T) {
	sim, _ := bulkWorld(1, 10e6, 20*time.Millisecond, 0)
	c := NewConn(sim, "server", "client", DefaultConfig())
	c.Write(20 << 20) // 20 MB
	sim.RunUntil(10 * time.Second)
	gotBps := float64(c.Delivered()) * 8 / 10
	// Expect near link rate (10 Mbps) after slow start.
	if gotBps < 8e6 {
		t.Fatalf("goodput %.2f Mbps, want ~10", gotBps/1e6)
	}
	if gotBps > 10.5e6 {
		t.Fatalf("goodput %.2f Mbps exceeds link rate", gotBps/1e6)
	}
}

func TestSlowStartRampsExponentially(t *testing.T) {
	sim, _ := bulkWorld(2, 100e6, 50*time.Millisecond, 0)
	c := NewConn(sim, "server", "client", DefaultConfig())
	c.Write(50 << 20)
	// After 2 RTTs, delivered should be roughly initialCwnd*(2^2-1)..
	// just assert strictly increasing per-RTT deliveries early on.
	var perRTT []uint64
	last := uint64(0)
	for i := 1; i <= 5; i++ {
		sim.RunUntil(time.Duration(i) * 100 * time.Millisecond)
		perRTT = append(perRTT, c.Delivered()-last)
		last = c.Delivered()
	}
	for i := 1; i < len(perRTT); i++ {
		if perRTT[i] < perRTT[i-1] {
			t.Fatalf("slow start not ramping: %v", perRTT)
		}
	}
	// Roughly doubling each RTT in early slow start.
	if perRTT[1] < perRTT[0]*3/2 {
		t.Fatalf("no exponential growth: %v", perRTT)
	}
}

func TestLossRecovery(t *testing.T) {
	sim, _ := bulkWorld(3, 5e6, 25*time.Millisecond, 0.01)
	c := NewConn(sim, "server", "client", DefaultConfig())
	c.Write(4 << 20)
	sim.RunUntil(40 * time.Second)
	// With 1% loss the transfer must still complete (NewReno at 1% loss
	// and 50ms RTT sustains ~1.5-2.5 Mbps; 4MB needs well under 40s).
	if c.Delivered() != 4<<20 {
		t.Fatalf("delivered %d of %d under 1%% loss", c.Delivered(), 4<<20)
	}
}

func TestInOrderDelivery(t *testing.T) {
	sim, _ := bulkWorld(4, 5e6, 10*time.Millisecond, 0.05)
	c := NewConn(sim, "server", "client", DefaultConfig())
	total := 0
	lastTotal := -1
	c.OnDeliver = func(n int) {
		if n <= 0 {
			t.Fatalf("non-positive delivery %d", n)
		}
		total += n
		if total <= lastTotal {
			t.Fatal("delivery went backwards")
		}
		lastTotal = total
	}
	c.Write(1 << 20)
	sim.RunUntil(30 * time.Second)
	if uint64(total) != c.Delivered() || total != 1<<20 {
		t.Fatalf("delivered %d (callback %d)", c.Delivered(), total)
	}
}

func TestRTTEstimate(t *testing.T) {
	sim, _ := bulkWorld(5, 10e6, 30*time.Millisecond, 0)
	c := NewConn(sim, "server", "client", DefaultConfig())
	c.Write(1 << 20)
	sim.RunUntil(3 * time.Second)
	srtt := c.SRTT()
	// One-way 30ms -> base RTT 60ms; the 100ms drop-tail queue bounds
	// bufferbloat.
	if srtt < 55*time.Millisecond || srtt > 200*time.Millisecond {
		t.Fatalf("SRTT = %v, want 60-200ms", srtt)
	}
}

// migrate sets up the second bTelco's path and performs the address
// change d after invalidation.
func migrate(sim *netem.Sim, c *Conn, d time.Duration, newIP string, bw float64, delay time.Duration) {
	c.AddrInvalidated()
	sim.Connect("server", newIP, &netem.Link{Delay: delay, BandwidthBps: bw})
	sim.After(d, func() { c.AddrAvailable(newIP) })
}

func TestMPTCPSurvivesAddressChange(t *testing.T) {
	sim, _ := bulkWorld(6, 10e6, 20*time.Millisecond, 0)
	c := NewConn(sim, "server", "client", DefaultConfig())
	subflows := 0
	c.OnSubflow = func(uint32) { subflows++ }
	c.Write(40 << 20)
	sim.RunUntil(5 * time.Second)
	before := c.Delivered()
	if before == 0 {
		t.Fatal("nothing delivered before handover")
	}
	// Handover at t=5s with 32ms attach latency.
	migrate(sim, c, 32*time.Millisecond, "client2", 10e6, 20*time.Millisecond)
	sim.RunUntil(15 * time.Second)
	after := c.Delivered()
	if c.Closed() {
		t.Fatal("MPTCP connection closed on address change")
	}
	if after <= before {
		t.Fatal("no progress after address change")
	}
	// The initial subflow predates the callback registration; exactly one
	// re-join must have fired.
	if subflows != 1 {
		t.Fatalf("post-handover subflows = %d, want 1", subflows)
	}
	// Post-handover goodput should approach link rate again.
	rate := float64(after-before) * 8 / 10
	if rate < 7e6 {
		t.Fatalf("post-handover goodput %.2f Mbps", rate/1e6)
	}
}

func TestPlainTCPDiesOnAddressChange(t *testing.T) {
	sim, _ := bulkWorld(7, 10e6, 20*time.Millisecond, 0)
	cfg := DefaultConfig()
	cfg.Multipath = false
	c := NewConn(sim, "server", "client", cfg)
	c.Write(1 << 20)
	sim.RunUntil(time.Second)
	c.AddrInvalidated()
	if !c.Closed() {
		t.Fatal("plain TCP survived address invalidation")
	}
}

func TestAddrWorkWaitDelaysResumption(t *testing.T) {
	// Measure the gap between invalidation and the first post-handover
	// delivery for wait = 0 vs 500ms. The difference must be ~500ms.
	gap := func(wait time.Duration) time.Duration {
		sim, _ := bulkWorld(8, 10e6, 20*time.Millisecond, 0)
		cfg := DefaultConfig()
		cfg.AddrWorkWait = wait
		c := NewConn(sim, "server", "client", cfg)
		c.Write(100 << 20)
		sim.RunUntil(3 * time.Second)
		var resumed time.Duration = -1
		handover := sim.Now()
		c.OnDeliver = func(int) {
			if resumed < 0 {
				resumed = sim.Now()
			}
		}
		migrate(sim, c, 32*time.Millisecond, "client2", 10e6, 20*time.Millisecond)
		sim.RunUntil(10 * time.Second)
		if resumed < 0 {
			t.Fatal("never resumed")
		}
		return resumed - handover
	}
	g0 := gap(0)
	g500 := gap(500 * time.Millisecond)
	diff := g500 - g0
	if diff < 450*time.Millisecond || diff > 550*time.Millisecond {
		t.Fatalf("wait-period delta = %v (g0=%v g500=%v), want ~500ms", diff, g0, g500)
	}
	// Without the wait, resumption is attach d (32ms) + handshake RTT
	// (~40ms) + first data flight (~40ms).
	if g0 > 250*time.Millisecond {
		t.Fatalf("no-wait resumption took %v", g0)
	}
}

func TestTimeoutTearsDownWithoutNewAddress(t *testing.T) {
	sim, _ := bulkWorld(9, 10e6, 20*time.Millisecond, 0)
	cfg := DefaultConfig()
	cfg.Timeout = 5 * time.Second
	c := NewConn(sim, "server", "client", cfg)
	c.Write(1 << 20)
	sim.RunUntil(time.Second)
	c.AddrInvalidated()
	sim.RunUntil(4 * time.Second)
	if c.Closed() {
		t.Fatal("closed before timeout")
	}
	sim.RunUntil(7 * time.Second)
	if !c.Closed() {
		t.Fatal("not closed after timeout")
	}
	// A late address is ignored.
	c.AddrAvailable("client2")
	for sim.Step() {
	}
	if !c.Closed() {
		t.Fatal("revived after timeout")
	}
}

func TestJoinHandshakeSurvivesLoss(t *testing.T) {
	sim := netem.NewSim(10)
	sim.Connect("server", "client", &netem.Link{Delay: 20 * time.Millisecond, BandwidthBps: 10e6})
	c := NewConn(sim, "server", "client", DefaultConfig())
	c.Write(10 << 20)
	sim.RunUntil(2 * time.Second)
	c.AddrInvalidated()
	// New path is very lossy: join SYN will likely be dropped a few
	// times; the retry must get through eventually.
	sim.Connect("server", "client2", &netem.Link{Delay: 20 * time.Millisecond, BandwidthBps: 10e6, Loss: 0.5})
	sim.After(32*time.Millisecond, func() { c.AddrAvailable("client2") })
	before := c.Delivered()
	sim.RunUntil(30 * time.Second)
	if c.Delivered() <= before {
		t.Fatal("connection never resumed over lossy join path")
	}
}

// cellLink builds a cellular-style path: operator token-bucket shaping
// with a deep buffer (the bottleneck), not a tail-dropping serializer.
func cellLink(rateBps float64, delay time.Duration) *netem.Link {
	return &netem.Link{
		Delay:    delay,
		MaxQueue: 2 * time.Second, // cellular buffers are deep
		ShaperAB: netem.NewShaper(netem.ConstantRate(rateBps), 256*1024, 256*1024),
		ShaperBA: netem.NewShaper(netem.ConstantRate(rateBps), 256*1024, 256*1024),
	}
}

// TestJoinedSubflowSlowStartsFresh: a subflow joined from a new address
// misses the per-(src,dst) metrics cache, so it opens at initialCwnd with
// ssthresh unset, as newSubflow says; and delivery resumes within 2 s of
// the new address on a 16 Mbit/s cell.
func TestJoinedSubflowSlowStartsFresh(t *testing.T) {
	const rate = 16e6
	sim := netem.NewSim(11)
	sim.Connect("server", "client", cellLink(rate, 25*time.Millisecond))
	cfg := DefaultConfig()
	cfg.AddrWorkWait = 0
	c := NewConn(sim, "server", "client", cfg)
	c.Write(500 << 20)
	sim.RunUntil(10 * time.Second)
	c.AddrInvalidated()
	sim.Connect("server", "client2", cellLink(rate, 25*time.Millisecond))
	joined := 0
	c.OnSubflow = func(id uint32) {
		joined++
		if id != 2 || c.sender.cwnd != initialCwnd || c.sender.ssthresh != 1<<30 {
			t.Errorf("subflow %d opens at cwnd %.0f ssthresh %.0f, want 2 at %d and %d",
				id, c.sender.cwnd, c.sender.ssthresh, initialCwnd, 1<<30)
		}
	}
	const newAddr = 11 * time.Second
	resumed := time.Duration(-1)
	sim.At(newAddr, func() {
		c.OnDeliver = func(int) {
			if resumed < 0 {
				resumed = sim.Now()
			}
		}
		c.AddrAvailable("client2")
	})
	sim.RunUntil(newAddr + 2*time.Second)
	if joined != 1 {
		t.Fatalf("%d subflows joined, want 1", joined)
	}
	if resumed < newAddr {
		t.Fatalf("no delivery within 2 s of the new address at %v", newAddr)
	}
}

func TestSlowStartOvershootAfterResume(t *testing.T) {
	// The paper's Fig. 8/9 observation: right after a handover, the fresh
	// subflow in slow start rides the token-bucket credit the policer
	// accrued during the outage and briefly exceeds the policed rate,
	// then converges back. Measure rate in windows around the handover.
	const rate = 16e6
	sim := netem.NewSim(11)
	sim.Connect("server", "client", cellLink(rate, 25*time.Millisecond))
	cfg := DefaultConfig()
	cfg.AddrWorkWait = 0
	c := NewConn(sim, "server", "client", cfg)
	c.Write(500 << 20)
	sim.RunUntil(6 * time.Second)
	d0 := c.Delivered()
	sim.RunUntil(10 * time.Second)
	steady := float64(c.Delivered()-d0) * 8 / 4 // bps over 4s
	if steady < 0.8*rate {
		t.Fatalf("steady rate %.1f Mbps, want ~16", steady/1e6)
	}
	// Handover with a 1s outage (d=1s exaggerates the token credit).
	c.AddrInvalidated()
	sim.Connect("server", "client2", cellLink(rate, 25*time.Millisecond))
	sim.After(time.Second, func() { c.AddrAvailable("client2") })
	// Scan 500 ms windows for 5s after the resume: the fresh subflow
	// riding the policer's accrued token credit must overshoot the
	// policed steady rate in at least one window.
	sim.RunUntil(11 * time.Second)
	last := c.Delivered()
	maxRate := 0.0
	for half := 23; half <= 32; half++ {
		sim.RunUntil(time.Duration(half) * 500 * time.Millisecond)
		r := float64(c.Delivered()-last) * 8 * 2
		last = c.Delivered()
		if r > maxRate {
			maxRate = r
		}
	}
	if maxRate < steady*1.05 {
		t.Fatalf("max post-resume rate %.1f Mbps never overshot steady %.1f", maxRate/1e6, steady/1e6)
	}
	// And it converges back to the policed rate afterwards.
	sim.RunUntil(18 * time.Second)
	dS := c.Delivered()
	sim.RunUntil(20 * time.Second)
	later := float64(c.Delivered()-dS) * 8 / 2
	if later > 1.15*rate || later < 0.75*rate {
		t.Fatalf("post-burst rate %.1f Mbps did not converge to ~16", later/1e6)
	}
}

func TestQUICMigratesFasterThanMPTCP(t *testing.T) {
	// Same handover; measure time from invalidation to first resumed
	// delivery for deployed MPTCP (500 ms wait + 3-way join) vs QUIC
	// (no wait, 1-RTT path validation).
	gap := func(cfg Config) time.Duration {
		sim, _ := bulkWorld(21, 10e6, 20*time.Millisecond, 0)
		c := NewConn(sim, "server", "client", cfg)
		c.Write(100 << 20)
		sim.RunUntil(3 * time.Second)
		var resumed time.Duration = -1
		at := sim.Now()
		c.OnDeliver = func(int) {
			if resumed < 0 {
				resumed = sim.Now()
			}
		}
		migrate(sim, c, 32*time.Millisecond, "client2", 10e6, 20*time.Millisecond)
		sim.RunUntil(10 * time.Second)
		if resumed < 0 {
			t.Fatal("never resumed")
		}
		return resumed - at
	}
	mptcpGap := gap(DefaultConfig())
	quicGap := gap(quicConfig())
	if quicGap >= mptcpGap {
		t.Fatalf("QUIC resumed in %v, MPTCP in %v — QUIC should be faster", quicGap, mptcpGap)
	}
	// QUIC: d (32ms) + 1 RTT probe (~40ms) + half RTT data ≈ 100ms.
	if quicGap > 200*time.Millisecond {
		t.Fatalf("QUIC resumption took %v", quicGap)
	}
	// The MPTCP gap must carry the 500ms wait.
	if mptcpGap < 500*time.Millisecond {
		t.Fatalf("MPTCP resumed in %v despite the 500ms wait", mptcpGap)
	}
}

func TestQUICSurvivesRepeatedMigrations(t *testing.T) {
	sim, _ := bulkWorld(22, 10e6, 20*time.Millisecond, 0)
	c := NewConn(sim, "server", "client", quicConfig())
	c.Write(100 << 20)
	ip := "client"
	for i := 0; i < 5; i++ {
		sim.RunUntil(time.Duration(i+1) * 2 * time.Second)
		c.AddrInvalidated()
		sim.Disconnect("server", ip)
		ip = fmt.Sprintf("client-%d", i)
		sim.Connect("server", ip, &netem.Link{Delay: 20 * time.Millisecond, BandwidthBps: 10e6})
		next := ip
		sim.After(32*time.Millisecond, func() { c.AddrAvailable(next) })
	}
	sim.RunUntil(14 * time.Second)
	if c.Closed() {
		t.Fatal("QUIC connection died across migrations")
	}
	// ~10 Mbps across 14s minus 5 short outages.
	if got := float64(c.Delivered()) * 8 / 14; got < 7e6 {
		t.Fatalf("goodput %.1f Mbps across 5 migrations", got/1e6)
	}
}

// Property: across arbitrary migration schedules, delivery is conserved —
// the receiver never gets more bytes than the app wrote, never negative
// progress, and the connection either survives or is cleanly closed.
func TestPropertyDeliveryConservation(t *testing.T) {
	f := func(seed int64, hops []uint8, protoBit bool) bool {
		sim := netem.NewSim(seed)
		sim.Connect("server", "client", &netem.Link{Delay: 15 * time.Millisecond, BandwidthBps: 8e6, Loss: 0.002})
		cfg := DefaultConfig()
		if protoBit {
			cfg = quicConfig()
		}
		cfg.Timeout = 10 * time.Second
		c := NewConn(sim, "server", "client", cfg)
		const total = 2 << 20
		c.Write(total)
		ip := "client"
		if len(hops) > 6 {
			hops = hops[:6]
		}
		at := time.Duration(0)
		for i, h := range hops {
			at += time.Duration(h%50)*100*time.Millisecond + 500*time.Millisecond
			hopAt := at
			idx := i
			sim.At(hopAt, func() {
				if c.Closed() {
					return
				}
				c.AddrInvalidated()
				sim.Disconnect("server", ip)
				ip = fmt.Sprintf("client-h%d", idx)
				sim.Connect("server", ip, &netem.Link{Delay: 15 * time.Millisecond, BandwidthBps: 8e6, Loss: 0.002})
				next := ip
				sim.After(32*time.Millisecond, func() { c.AddrAvailable(next) })
			})
		}
		sim.RunUntil(at + 60*time.Second)
		if c.Delivered() > total {
			return false
		}
		// With migrations spaced under the 10s timeout the connection
		// must have survived and finished the transfer.
		return c.Delivered() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// inject hands the client one data segment as if it had just arrived.
func inject(c *Conn, seq uint64, n int) {
	seg := c.segs.get()
	seg.ConnID, seg.SubflowID = c.id, c.subflowSeq
	seg.Seq, seg.Len, seg.ACK = seq, n, true
	c.handleAtClient(&netem.Packet{Payload: seg})
}

// TestOOODropsOvertakenSegments sends overlapping segment boundaries: a
// retransmission cut differently from the original advances recvNext past
// the start of a buffered segment. That entry can never drain (the drain
// matches on exact seq), so it must be dropped rather than sit in the
// buffer for the life of the connection.
func TestOOODropsOvertakenSegments(t *testing.T) {
	sim, link := bulkWorld(1, 10e6, time.Millisecond, 0)
	c := NewConn(sim, "server", "client", DefaultConfig())
	var acks []uint64
	link.Transit = func(p *netem.Packet, _ time.Duration) bool {
		if seg := p.Payload.(*Segment); p.Src == "client" {
			acks = append(acks, seg.Ack)
		}
		return true
	}
	inject(c, 4000, 500)
	inject(c, 2000, 1000)
	inject(c, 4000, 1000) // same seq, longer: replaces the buffered length
	inject(c, 0, 2500)    // overtakes the segment buffered at 2000
	if c.recvNext != 2500 || c.Delivered() != 2500 {
		t.Fatalf("recvNext = %d, delivered = %d, want 2500 (overtaken tail must not be delivered)", c.recvNext, c.Delivered())
	}
	if len(c.ooo) != 1 || c.ooo[0].seq != 4000 {
		t.Fatalf("ooo = %v after overtaking, want only the segment at 4000", c.ooo)
	}
	inject(c, 2500, 1500) // fills the hole: the segment at 4000 drains
	if c.recvNext != 5000 || len(c.ooo) != 0 {
		t.Fatalf("recvNext = %d, ooo = %v, want 5000 and empty", c.recvNext, c.ooo)
	}
	want := []uint64{0, 0, 0, 2500, 5000}
	if fmt.Sprint(acks) != fmt.Sprint(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
}

// TestSegmentIsOneCacheLine pins the pooled segment box within 64 bytes:
// every data segment and ACK is one, read on delivery and written on send.
func TestSegmentIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Segment{}); n > 64 {
		t.Fatalf("unsafe.Sizeof(Segment{}) = %d, want at most 64", n)
	}
}

// BenchmarkBulkTransfer measures what runs on top of netem's Send in every
// Table 1 / Fig. 8-10 experiment: one Conn in steady state over Table 1's
// own link (the Downtown route at night: loss, jitter, the operator's
// per-epoch policer) — data, ACKs, RTO re-arming, out-of-order buffering
// and loss recovery. One op is one MSS delivered in order.
// TestBulkTransferZeroAlloc holds it at 0 allocs/op.
func BenchmarkBulkTransfer(b *testing.B) {
	sim, c := steadyBulkTransfer()
	b.ReportAllocs()
	b.ResetTimer()
	target := c.Delivered() + uint64(b.N)*MSS
	for c.Delivered() < target {
		if !sim.Step() {
			b.Fatal("transfer stalled")
		}
	}
}

// steadyBulkTransfer starts one Conn over Table 1's Downtown night link and
// runs it past slow start, so its pools are warm.
func steadyBulkTransfer() (*netem.Sim, *Conn) {
	sim := netem.NewSim(1)
	sim.Connect("server", "client", mobility.NewOperator(1).CellularLink(mobility.Downtown, true))
	c := NewConn(sim, "server", "client", DefaultConfig())
	c.Write(1 << 40)
	sim.RunUntil(30 * time.Second)
	return sim, c
}

// TestBulkTransferZeroAlloc: BenchmarkBulkTransfer's steady state — data,
// ACKs, RTO re-arming, out-of-order buffering and loss recovery on a lossy,
// jittery, policed link — allocates nothing per 64 delivered segments.
func TestBulkTransferZeroAlloc(t *testing.T) {
	sim, c := steadyBulkTransfer()
	deliver := func() {
		target := c.Delivered() + 64*MSS
		for c.Delivered() < target {
			if !sim.Step() {
				t.Fatal("transfer stalled")
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Fatalf("steady-state transfer allocates %.1f objects per 64 segments", allocs)
	}
}

// TestColdTransferAllocations counts what TestBulkTransferZeroAlloc's warm
// pools hide: a fresh Sim and Conn run 30 s over steadyBulkTransfer's link,
// so every pool starts empty and grows to the size of the window. The second
// case hands over to a new address at 15 s and re-subflows. Segments, events
// and packets come a slab at a time, so the count is a few hundred objects
// for a window of hundreds of segments.
func TestColdTransferAllocations(t *testing.T) {
	cases := []struct {
		name     string
		handover bool
		ceiling  float64
	}{
		{"steady", false, 300},
		{"handover at 15s", true, 330},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := func() {
				op := mobility.NewOperator(1)
				sim := netem.NewSim(1)
				sim.Connect("server", "client", op.CellularLink(mobility.Downtown, true))
				c := NewConn(sim, "server", "client", DefaultConfig())
				c.Write(1 << 40)
				if tc.handover {
					sim.RunUntil(15 * time.Second)
					c.AddrInvalidated()
					sim.Connect("server", "client2", op.CellularLink(mobility.Downtown, true))
					c.AddrAvailable("client2")
				}
				sim.RunUntil(30 * time.Second)
				if c.Delivered() == 0 || c.Closed() {
					t.Fatalf("delivered %d, closed %v", c.Delivered(), c.Closed())
				}
			}
			if allocs := testing.AllocsPerRun(3, cold); allocs > tc.ceiling {
				t.Fatalf("a cold 30 s Conn allocates %.0f objects, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}

// quicConfig is connection-ID migration as deployed: no wait period.
func quicConfig() Config {
	return Config{Multipath: true, Protocol: ProtoQUIC, Timeout: 60 * time.Second}
}
