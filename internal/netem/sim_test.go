package netem

import (
	"testing"
	"testing/quick"
	"time"
)

// run fires every pending event, then flushes the Sim's counters.
func run(s *Sim) {
	for s.Step() {
	}
	s.FlushMetrics()
}

func TestSimOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	run(s)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimFIFOAtSameInstant(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	run(s)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSimCancel(t *testing.T) {
	s := NewSim(1)
	fired := false
	e := s.After(time.Millisecond, func() { fired = true })
	e.Cancel()
	run(s)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.cancelled {
		t.Fatal("cancelled = false after Cancel")
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(3 * time.Second)
	if count != 3 {
		t.Fatalf("count = %d after RunUntil(3s), want 3", count)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
	run(s)
	if count != 5 {
		t.Fatalf("count = %d after Run, want 5", count)
	}
}

func TestSimSchedulePastPanics(t *testing.T) {
	s := NewSim(1)
	s.After(time.Second, func() {})
	run(s)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(time.Millisecond, func() {})
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim(1)
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, step)
		}
	}
	s.After(0, step)
	run(s)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestLinkDelivery(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Delay: 10 * time.Millisecond})
	var at time.Duration = -1
	s.Register("b", func(p *Packet) { at = s.Now() })
	if !s.Send(&Packet{Src: "a", Dst: "b", Size: 100}) {
		t.Fatal("send rejected")
	}
	run(s)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
}

func TestLinkBidirectional(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Delay: 5 * time.Millisecond})
	gotA, gotB := 0, 0
	s.Register("a", func(p *Packet) { gotA++ })
	s.Register("b", func(p *Packet) { gotB++ })
	s.Send(&Packet{Src: "a", Dst: "b", Size: 1})
	s.Send(&Packet{Src: "b", Dst: "a", Size: 1})
	run(s)
	if gotA != 1 || gotB != 1 {
		t.Fatalf("gotA=%d gotB=%d, want 1,1", gotA, gotB)
	}
}

func TestLinkLossAllAndNone(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Loss: 1.0})
	got := 0
	s.Register("b", func(p *Packet) { got++ })
	for i := 0; i < 50; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 1})
	}
	run(s)
	if got != 0 {
		t.Fatalf("loss=1.0 delivered %d packets", got)
	}

	s2 := NewSim(1)
	s2.Connect("a", "b", &Link{Loss: 0})
	got2 := 0
	s2.Register("b", func(p *Packet) { got2++ })
	for i := 0; i < 50; i++ {
		s2.Send(&Packet{Src: "a", Dst: "b", Size: 1})
	}
	run(s2)
	if got2 != 50 {
		t.Fatalf("loss=0 delivered %d packets, want 50", got2)
	}
}

func TestLinkLossStatistical(t *testing.T) {
	s := NewSim(42)
	s.Connect("a", "b", &Link{Loss: 0.3})
	got := 0
	s.Register("b", func(p *Packet) { got++ })
	const n = 10000
	for i := 0; i < n; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 1})
	}
	run(s)
	frac := float64(got) / n
	if frac < 0.66 || frac > 0.74 {
		t.Fatalf("delivery fraction %.3f, want ~0.70", frac)
	}
}

func TestLinkDownDrops(t *testing.T) {
	s := NewSim(1)
	l := &Link{Delay: time.Millisecond}
	s.Connect("a", "b", l)
	got := 0
	s.Register("b", func(p *Packet) { got++ })
	l.Down = true
	if s.Send(&Packet{Src: "a", Dst: "b", Size: 1}) {
		t.Fatal("send on down link accepted")
	}
	l.Down = false
	if !s.Send(&Packet{Src: "a", Dst: "b", Size: 1}) {
		t.Fatal("send on up link rejected")
	}
	run(s)
	if got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestUnregisteredDestinationSilentDrop(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{})
	if !s.Send(&Packet{Src: "a", Dst: "b", Size: 1}) {
		t.Fatal("send rejected; in-flight drop expected instead")
	}
	run(s) // must not panic
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000-byte packets at 8000 bits/s => 1s each, back to back.
	s := NewSim(1)
	s.Connect("a", "b", &Link{BandwidthBps: 8000, MaxQueue: 10 * time.Second})
	var arrivals []time.Duration
	s.Register("b", func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 3; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 1000})
	}
	run(s)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival[%d] = %v, want %v", i, arrivals[i], want[i])
		}
	}
}

func TestShaperThroughputBound(t *testing.T) {
	// Offered load 10x the policed rate: delivered goodput over the window
	// must approximate the policed rate.
	s := NewSim(7)
	sh := NewShaper(ConstantRate(1e6), 16*1024, 64*1024) // 1 Mbps
	s.Connect("a", "b", &Link{Delay: time.Millisecond, ShaperAB: sh})
	delivered := 0
	s.Register("b", func(p *Packet) { delivered += p.Size })

	pktSize := 1250 // 10 kbit
	var tick func()
	end := 10 * time.Second
	tick = func() {
		if s.Now() >= end {
			return
		}
		// 10 Mbps offered: one 1250B packet per ms.
		s.Send(&Packet{Src: "a", Dst: "b", Size: pktSize})
		s.After(time.Millisecond, tick)
	}
	s.After(0, tick)
	s.RunUntil(end + time.Second)

	gotBps := float64(delivered) * 8 / 10
	if gotBps < 0.8e6 || gotBps > 1.25e6 {
		t.Fatalf("shaped goodput %.0f bps, want ~1e6", gotBps)
	}
}

func TestDayNightPolicy(t *testing.T) {
	p := NewDefaultDayNightPolicy(3)
	// Sim starts at 13:00 -> day.
	if !p.IsDay(0) {
		t.Fatal("13:00 should be day")
	}
	// +12h = 01:00 -> night (after the 00:30 switch-off).
	if p.IsDay(12 * time.Hour) {
		t.Fatal("01:00 should be night")
	}
	// +11h20m = 00:20 -> still day (before 00:30).
	if !p.IsDay(11*time.Hour + 20*time.Minute) {
		t.Fatal("00:20 should still be day-policed")
	}
	if r := p.Rate(0); r != p.DayRateBps {
		t.Fatalf("day rate = %v, want %v", r, p.DayRateBps)
	}
	// Night rates: positive, bounded by peak, variable.
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		tm := 12*time.Hour + time.Duration(i)*p.NightEpoch
		r := p.Rate(tm)
		if r <= 0 || r > p.NightPeakBps {
			t.Fatalf("night rate %v out of range", r)
		}
		seen[int64(r)] = true
	}
	if len(seen) < 50 {
		t.Fatalf("night rates insufficiently variable: %d distinct", len(seen))
	}
}

func TestDayNightPolicyDeterministic(t *testing.T) {
	a := NewDefaultDayNightPolicy(9)
	b := NewDefaultDayNightPolicy(9)
	for i := 0; i < 100; i++ {
		tm := 12*time.Hour + time.Duration(i)*time.Second
		if a.Rate(tm) != b.Rate(tm) {
			t.Fatal("same-seed policies disagree")
		}
	}
}

func TestNightMeanCalibration(t *testing.T) {
	p := NewDefaultDayNightPolicy(11)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		// Stay inside the night window (00:30-06:00 -> sim 11.5h-17h from
		// the 13:00 anchor).
		sum += p.Rate(12*time.Hour + time.Duration(i)*p.NightEpoch)
	}
	mean := sum / n
	// Clamping at the peak pulls the mean below the configured target.
	if mean < 14e6 || mean > 21e6 {
		t.Fatalf("night mean %.2f Mbps, want ~15-20", mean/1e6)
	}
}

// Property: for any schedule of events with non-negative delays, the clock
// observed inside each callback is monotonically non-decreasing.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewSim(5)
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		run(s)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a shaper never delivers more bytes over a window than
// rate*window + burst allows.
func TestPropertyShaperNeverExceedsRate(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		s := NewSim(seed)
		const rate = 2e6
		burst := 8 * 1024
		sh := NewShaper(ConstantRate(rate), burst, 1<<20)
		s.Connect("a", "b", &Link{ShaperAB: sh})
		delivered := 0
		s.Register("b", func(p *Packet) { delivered += p.Size })
		for i, sz := range sizes {
			size := int(sz) + 1
			at := time.Duration(i) * 100 * time.Microsecond
			s.At(at, func() { s.Send(&Packet{Src: "a", Dst: "b", Size: size}) })
		}
		window := time.Duration(len(sizes)) * 100 * time.Microsecond
		run(s)
		elapsed := window + s.Now() // generous upper bound on drain window
		maxBytes := rate/8*elapsed.Seconds() + float64(burst) + 256
		return float64(delivered) <= maxBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkStatsAndTap: the link's counters, and Transit as an in-path tap
// that sees every packet a link up carries and none that a down link drops.
func TestLinkStatsAndTap(t *testing.T) {
	s := NewSim(1)
	tapped := 0
	l := &Link{Delay: time.Millisecond, Loss: 0, Transit: func(p *Packet, at time.Duration) bool {
		tapped++
		if at != s.Now() {
			t.Fatalf("tap at %v, now %v", at, s.Now())
		}
		return true
	}}
	s.Connect("a", "b", l)
	s.Register("b", func(*Packet) {})
	for i := 0; i < 10; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 100})
	}
	l.Down = true
	s.Send(&Packet{Src: "a", Dst: "b", Size: 100})
	run(s)
	st := l.stats
	if st.Sent != 10 || st.SentBytes != 1000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DroppedDown != 1 {
		t.Fatalf("down drops = %d", st.DroppedDown)
	}
	if tapped != 10 {
		t.Fatalf("tap saw %d", tapped)
	}
}

func TestLinkStatsLossCounted(t *testing.T) {
	s := NewSim(3)
	l := &Link{Loss: 0.5}
	s.Connect("a", "b", l)
	s.Register("b", func(*Packet) {})
	for i := 0; i < 1000; i++ {
		s.Send(&Packet{Src: "a", Dst: "b", Size: 10})
	}
	st := l.stats
	if st.Sent+st.DroppedLoss != 1000 {
		t.Fatalf("sent %d + lost %d != 1000", st.Sent, st.DroppedLoss)
	}
	if st.DroppedLoss < 400 || st.DroppedLoss > 600 {
		t.Fatalf("loss drops = %d, want ~500", st.DroppedLoss)
	}
}
