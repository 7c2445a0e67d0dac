package apps

import (
	"testing"
	"time"

	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
)

func cellWorld(seed int64, rateBps float64, delay time.Duration) (*netem.Sim, *mptcp.Conn) {
	sim := netem.NewSim(seed)
	link := &netem.Link{
		Delay:    delay,
		MaxQueue: 2 * time.Second,
		ShaperAB: netem.NewShaper(netem.ConstantRate(rateBps), 256*1024, 256*1024),
		ShaperBA: netem.NewShaper(netem.ConstantRate(rateBps), 256*1024, 256*1024),
	}
	sim.Connect("server", "client", link)
	conn := mptcp.NewConn(sim, "server", "client", mptcp.DefaultConfig())
	return sim, conn
}

func TestPercentile(t *testing.T) {
	s := []time.Duration{5, 1, 3, 2, 4}
	if got := Percentile(s, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(s, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(s, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty p50 = %v", got)
	}
}

// TestPercentileInterpolates pins the linear-interpolation fix: when p
// falls between two ranks, the result is the weighted blend of the
// neighbours, not the lower sample (the old truncating-index behaviour).
func TestPercentileInterpolates(t *testing.T) {
	two := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if got := Percentile(two, 50); got != 15*time.Millisecond {
		t.Fatalf("p50 of {10ms, 20ms} = %v, want 15ms", got)
	}
	if got := Percentile(two, 25); got != 12500*time.Microsecond {
		t.Fatalf("p25 of {10ms, 20ms} = %v, want 12.5ms", got)
	}
	four := []time.Duration{1, 2, 3, 4}
	if got := Percentile(four, 50); got != 2 {
		// rank = 1.5 between samples 2 and 3 → 2.5ns, truncated to 2ns by
		// integer Duration; the point is it is no longer simply s[1].
		t.Fatalf("p50 of {1,2,3,4}ns = %v", got)
	}
	if got := Percentile(four, 90); got != 3 {
		// rank 2.7 blends 3 and 4 into 3.7ns, truncated to 3ns.
		t.Fatalf("p90 of {1,2,3,4}ns = %v", got)
	}
	one := []time.Duration{7 * time.Millisecond}
	for _, p := range []float64{0, 37, 100} {
		if got := Percentile(one, p); got != 7*time.Millisecond {
			t.Fatalf("p%.0f of single sample = %v", p, got)
		}
	}
}

// TestMOSBoundaries pins the clamp behaviour at the E-model's edges.
func TestMOSBoundaries(t *testing.T) {
	// Zero-delay, zero-loss, zero-jitter: R is near its ceiling; MOS must
	// be excellent but still within [1, 5].
	perfect := MOS(0, 0, 0)
	if perfect < 4.3 || perfect > 5 {
		t.Fatalf("perfect call MOS = %.3f, want in [4.3, 5]", perfect)
	}
	// Catastrophic loss drives R below 0 — the r<0 branch must clamp the
	// score to exactly 1, not go negative.
	floor := MOS(2*time.Second, 1.0, time.Second)
	if floor != 1 {
		t.Fatalf("catastrophic call MOS = %.3f, want exactly 1", floor)
	}
	// Monotone around the floor: slightly-less-awful input cannot score
	// below the clamp.
	if m := MOS(1500*time.Millisecond, 0.9, 800*time.Millisecond); m < 1 {
		t.Fatalf("MOS %v below floor", m)
	}
	// The score never exceeds 5 anywhere on a coarse input sweep.
	for _, d := range []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		for _, loss := range []float64{0, 0.01, 0.2, 1} {
			for _, j := range []time.Duration{0, 5 * time.Millisecond, 200 * time.Millisecond} {
				if m := MOS(d, loss, j); m < 1 || m > 5 {
					t.Fatalf("MOS(%v, %v, %v) = %v out of [1,5]", d, loss, j, m)
				}
			}
		}
	}
}

func TestMOSShape(t *testing.T) {
	good := MOS(20*time.Millisecond, 0, 2*time.Millisecond)
	if good < 4.2 {
		t.Fatalf("clean call MOS = %.2f, want > 4.2", good)
	}
	lossy := MOS(20*time.Millisecond, 0.05, 2*time.Millisecond)
	if lossy >= good {
		t.Fatal("loss did not reduce MOS")
	}
	slow := MOS(400*time.Millisecond, 0, 2*time.Millisecond)
	if slow >= good {
		t.Fatal("delay did not reduce MOS")
	}
	terrible := MOS(800*time.Millisecond, 0.30, 100*time.Millisecond)
	if terrible > 1.6 {
		t.Fatalf("terrible call MOS = %.2f", terrible)
	}
	for _, m := range []float64{good, lossy, slow, terrible} {
		if m < 1 || m > 5 {
			t.Fatalf("MOS %v out of [1,5]", m)
		}
	}
}

func TestIperfTracksPolicedRate(t *testing.T) {
	sim, conn := cellWorld(1, 8e6, 25*time.Millisecond)
	res := NewIperf(sim, conn, time.Second).Run(20 * time.Second)
	if res.AvgBps < 6.0e6 || res.AvgBps > 9e6 {
		t.Fatalf("iperf avg %.2f Mbps on an 8 Mbps link", res.AvgBps/1e6)
	}
	if len(res.Series) < 19 {
		t.Fatalf("series has %d bins", len(res.Series))
	}
}

func TestPingerP50(t *testing.T) {
	sim := netem.NewSim(2)
	sim.Connect("pclient", "pserver", &netem.Link{Delay: 23 * time.Millisecond})
	p := NewPinger(sim, "pclient", "pserver", 100*time.Millisecond)
	samples := p.Run(10 * time.Second)
	if len(samples) < 90 {
		t.Fatalf("only %d samples", len(samples))
	}
	p50, loss := p.Stats()
	if p50 != 46*time.Millisecond {
		t.Fatalf("p50 = %v, want 46ms", p50)
	}
	if loss != 0 {
		t.Fatalf("loss = %v on clean link", loss)
	}
}

func TestPingerLossAndMobility(t *testing.T) {
	sim := netem.NewSim(3)
	sim.Connect("pclient", "pserver", &netem.Link{Delay: 10 * time.Millisecond})
	p := NewPinger(sim, "pclient", "pserver", 50*time.Millisecond)
	// Invalidate mid-run: probes sent in the dead window are lost, then
	// rehome and continue.
	sim.After(2*time.Second, func() {
		p.InvalidateClient()
		sim.Connect("pclient2", "pserver", &netem.Link{Delay: 10 * time.Millisecond})
		sim.After(100*time.Millisecond, func() { p.SetClientIP("pclient2") })
	})
	p.Run(5 * time.Second)
	_, loss := p.Stats()
	if loss <= 0 {
		t.Fatal("expected some loss in the dead window")
	}
	if loss > 0.2 {
		t.Fatalf("loss = %.2f, dead window should be short", loss)
	}
}

func TestVoIPCleanCall(t *testing.T) {
	sim := netem.NewSim(4)
	sim.Connect("vclient", "vserver", &netem.Link{Delay: 30 * time.Millisecond, Jitter: 2 * time.Millisecond})
	v := NewVoIP(sim, "vclient", "vserver")
	res := v.Run(30 * time.Second)
	if res.MOS < 4.2 {
		t.Fatalf("clean call MOS = %.2f", res.MOS)
	}
	if res.Loss > 0.001 {
		t.Fatalf("loss = %v", res.Loss)
	}
	if res.Sent < 1400 || res.Received < 1400 {
		t.Fatalf("sent=%d received=%d", res.Sent, res.Received)
	}
}

func TestVoIPHandoverReinvite(t *testing.T) {
	sim := netem.NewSim(5)
	sim.Connect("vclient", "vserver", &netem.Link{Delay: 30 * time.Millisecond})
	v := NewVoIP(sim, "vclient", "vserver")
	// Handover each 10s: 100ms attach + one signalling RTT re-INVITE.
	sim.After(10*time.Second, func() {
		v.InvalidateClient()
		sim.Connect("vclient2", "vserver", &netem.Link{Delay: 30 * time.Millisecond})
		sim.After(100*time.Millisecond, func() { v.Rehome("vclient2", 60*time.Millisecond) })
	})
	res := v.Run(30 * time.Second)
	// ~160ms dead window out of 30s: a few frames lost, call still good.
	if res.Loss <= 0 || res.Loss > 0.05 {
		t.Fatalf("loss = %.4f, want small but nonzero", res.Loss)
	}
	if res.MOS < 4.0 {
		t.Fatalf("MOS = %.2f after brief handover", res.MOS)
	}
}

func TestVideoAdaptsUp(t *testing.T) {
	sim, conn := cellWorld(6, 15e6, 25*time.Millisecond)
	v := NewVideo(sim, conn)
	res := v.Run(120 * time.Second)
	if res.Segments < 20 {
		t.Fatalf("only %d segments", res.Segments)
	}
	// 15 Mbps sustains the top rendition (4.5 Mbps): the session must
	// climb to and dwell at high levels.
	if res.AvgLevel < 3.5 {
		t.Fatalf("avg level %.2f on a 15 Mbps link", res.AvgLevel)
	}
	if res.Stalls > 1 {
		t.Fatalf("%d stalls on a clean fast link", res.Stalls)
	}
}

func TestVideoConstrainedByRate(t *testing.T) {
	sim, conn := cellWorld(7, 1.2e6, 25*time.Millisecond) // day policing
	v := NewVideo(sim, conn)
	res := v.Run(120 * time.Second)
	// 1.2 Mbps supports level ~2 (800 kbps) at best.
	if res.AvgLevel > 2.5 {
		t.Fatalf("avg level %.2f exceeds what 1.2 Mbps sustains", res.AvgLevel)
	}
	if res.Segments < 10 {
		t.Fatalf("only %d segments", res.Segments)
	}
}

func TestWebLoadTimes(t *testing.T) {
	sim, conn := cellWorld(8, 10e6, 25*time.Millisecond)
	w := NewWeb(sim, conn)
	res := w.Run(60 * time.Second)
	if res.Pages < 5 {
		t.Fatalf("only %d pages", res.Pages)
	}
	// 1.6MB at ~10Mbps + 4 RTT rounds: ~1.5-3.5s.
	if res.AvgLoad < 800*time.Millisecond || res.AvgLoad > 6*time.Second {
		t.Fatalf("avg load = %v", res.AvgLoad)
	}
}

func TestWebSlowerOnSlowLink(t *testing.T) {
	simFast, connFast := cellWorld(9, 10e6, 25*time.Millisecond)
	fast := NewWeb(simFast, connFast).Run(60 * time.Second)
	simSlow, connSlow := cellWorld(10, 1.2e6, 25*time.Millisecond)
	slow := NewWeb(simSlow, connSlow).Run(60 * time.Second)
	if slow.AvgLoad <= fast.AvgLoad {
		t.Fatalf("slow link loaded faster: %v vs %v", slow.AvgLoad, fast.AvgLoad)
	}
}

func TestVideoSurvivesHandoverStorm(t *testing.T) {
	// Segment buffering rides out dense address changes (Table 1's
	// "video is least sensitive" observation): handover every 10s with
	// the full 500ms MPTCP wait.
	sim, conn := cellWorld(11, 15e6, 25*time.Millisecond)
	ip := "client"
	for i := 0; i < 10; i++ {
		at := time.Duration(i+1) * 10 * time.Second
		idx := i
		sim.At(at, func() {
			conn.AddrInvalidated()
			sim.Disconnect("server", ip)
			ip = "client-h" + string(rune('a'+idx))
			link := &netem.Link{
				Delay:    25 * time.Millisecond,
				MaxQueue: 2 * time.Second,
				ShaperAB: netem.NewShaper(netem.ConstantRate(15e6), 256*1024, 256*1024),
				ShaperBA: netem.NewShaper(netem.ConstantRate(15e6), 256*1024, 256*1024),
			}
			sim.Connect("server", ip, link)
			next := ip
			sim.After(32*time.Millisecond, func() { conn.AddrAvailable(next) })
		})
	}
	res := NewVideo(sim, conn).Run(2 * time.Minute)
	if res.AvgLevel < 3.0 {
		t.Fatalf("avg level %.2f under handover storm on a fast link", res.AvgLevel)
	}
	if res.StallTime > 15*time.Second {
		t.Fatalf("stalled %v of 2m", res.StallTime)
	}
}

func TestIperfSeriesAccounting(t *testing.T) {
	sim, conn := cellWorld(12, 5e6, 20*time.Millisecond)
	res := NewIperf(sim, conn, time.Second).Run(10 * time.Second)
	var sum float64
	for _, v := range res.Series {
		sum += v
	}
	// Sum of the per-second bins must equal total delivered bits.
	if got := float64(res.Delivered) * 8; sum < got*0.99 || sum > got*1.01 {
		t.Fatalf("series sums to %.0f bits, delivered %.0f", sum, got)
	}
}
