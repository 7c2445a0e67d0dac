package testbed

import (
	"fmt"
	"testing"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/epc"
	"cellbricks/internal/mobility"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
	"cellbricks/internal/qos"
	"cellbricks/internal/ran"
)

func TestFig7ShapeMatchesPaper(t *testing.T) {
	if raceEnabled {
		t.Skip("Fig. 7 charges measured crypto wall time; the race detector inflates it ~10x")
	}
	run := func(arch Arch, p Placement) AttachBenchResult {
		t.Helper()
		r, err := RunAttachBench(arch, p, 30)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	blLocal := run(ArchBaseline, PlacementLocal)
	cbLocal := run(ArchCellBricks, PlacementLocal)
	blWest := run(ArchBaseline, PlacementUSWest)
	cbWest := run(ArchCellBricks, PlacementUSWest)
	blEast := run(ArchBaseline, PlacementUSEast)
	cbEast := run(ArchCellBricks, PlacementUSEast)

	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }

	// Paper: us-east BL 166.48 ms, CB 98.62 ms (CB 40.8% faster).
	if got := ms(blEast.Mean); got < 150 || got > 185 {
		t.Errorf("BL us-east = %.2f ms, paper 166.48", got)
	}
	if got := ms(cbEast.Mean); got < 90 || got > 110 {
		t.Errorf("CB us-east = %.2f ms, paper 98.62", got)
	}
	if cbEast.Mean >= blEast.Mean {
		t.Error("CB must beat BL at us-east (one fewer round trip)")
	}
	saving := 1 - cbEast.Mean.Seconds()/blEast.Mean.Seconds()
	if saving < 0.30 || saving > 0.50 {
		t.Errorf("us-east saving = %.1f%%, paper 40.8%%", saving*100)
	}

	// Paper: us-west BL 36.85 ms, CB 31.68 ms (CB 14% smaller).
	if got := ms(blWest.Mean); got < 32 || got > 42 {
		t.Errorf("BL us-west = %.2f ms, paper 36.85", got)
	}
	if cbWest.Mean >= blWest.Mean {
		t.Error("CB must beat BL at us-west")
	}

	// Paper: locally both ≈28 ms; CB adds ≈2 ms of crypto.
	delta := ms(cbLocal.Mean) - ms(blLocal.Mean)
	if delta < 0.5 || delta > 5 {
		t.Errorf("local CB overhead = %.2f ms, paper ≈2 ms", delta)
	}
	// "AGW and Brokerd accounts for about 70% of the total request
	// latency" locally.
	core := cbLocal.Breakdown[SpanAGW] + cbLocal.Breakdown[SpanBrokerd]
	frac := core.Seconds() / cbLocal.Mean.Seconds()
	if frac < 0.55 || frac > 0.85 {
		t.Errorf("local AGW+brokerd fraction = %.2f, paper ≈0.70", frac)
	}
	// The CB flow must never touch the SDB, and BL never the broker.
	if cbLocal.Breakdown[SpanSDB] != 0 {
		t.Error("CellBricks attach visited the SubscriberDB")
	}
	if blLocal.Breakdown[SpanBrokerd] != 0 {
		t.Error("baseline attach visited brokerd")
	}
}

func TestFig7BreakdownAccounting(t *testing.T) {
	r, err := RunAttachBench(ArchCellBricks, PlacementUSWest, 10)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, v := range r.Breakdown {
		sum += v
	}
	// The per-module means must add up to the total mean.
	diff := (sum - r.Mean).Seconds() * 1000
	if diff < -0.5 || diff > 0.5 {
		t.Fatalf("breakdown sums to %v, total %v", sum, r.Mean)
	}
}

func TestWorldHandoverSchedule(t *testing.T) {
	sc := Scenario{Route: mobility.Highway, Night: true, Arch: ArchCellBricks, Seed: 4, Duration: 10 * time.Minute}
	w := NewWorld(sc)
	if len(w.Handovers) < 15 {
		t.Fatalf("only %d handovers in 10 min at 25.5s MTTHO", len(w.Handovers))
	}
	// CB connection survives the entire drive.
	res := RunIperf(sc)
	if res.AvgBps <= 0 {
		t.Fatal("no throughput")
	}
	mean := (w.Handovers[len(w.Handovers)-1] - w.Handovers[0]) / time.Duration(len(w.Handovers)-1)
	want := mobility.Highway.MTTHO(true)
	if mean < want*7/10 || mean > want*13/10 {
		t.Fatalf("observed MTTHO %v, want ~%v", mean, want)
	}
}

func TestCellBricksConnSurvivesDrive(t *testing.T) {
	sc := Scenario{Route: mobility.Downtown, Night: false, Arch: ArchCellBricks, Seed: 9, Duration: 6 * time.Minute}
	w := NewWorld(sc)
	last := uint64(0)
	// Check the connection still makes progress after every handover.
	for _, at := range w.Handovers {
		w.Sim.RunUntil(at + 20*time.Second)
		if w.Conn.Closed() {
			t.Fatalf("connection dead after handover at %v", at)
		}
		_ = last
	}
}

func TestMNOOutageBriefButHarmless(t *testing.T) {
	day := Scenario{Route: mobility.Downtown, Arch: ArchBaseline, Seed: 10, Duration: 5 * time.Minute}
	res := RunIperf(day)
	// The baseline keeps its connection through handovers.
	if res.AvgBps < 0.8e6 {
		t.Fatalf("MNO day avg %.2f Mbps, want ~1.1", res.AvgBps/1e6)
	}
}

func TestNightFasterThanDay(t *testing.T) {
	day := Scenario{Route: mobility.Downtown, Arch: ArchCellBricks, Seed: 12, Duration: 4 * time.Minute}
	night := day
	night.Night = true
	d := RunIperf(day).AvgBps
	n := RunIperf(night).AvgBps
	if n < 5*d {
		t.Fatalf("night %.1f Mbps not clearly above day %.1f (paper: ~13x)", n/1e6, d/1e6)
	}
}

func TestFig10Bimodal(t *testing.T) {
	r := RunFig10(2, 200*time.Second)
	dm, _, ds := stats(r.DaySeries)
	nm, np, ns := stats(r.NightSeries)
	if nm < 8*dm {
		t.Fatalf("night/day = %.1fx, paper 14.5x", nm/dm)
	}
	if ns <= ds {
		t.Fatal("night variance should exceed day (paper: 8.94 vs 0.32)")
	}
	if np < 20e6 {
		t.Fatalf("night peak %.1f Mbps, paper 52.5", np/1e6)
	}
	if dm < 0.9e6 || dm > 1.3e6 {
		t.Fatalf("day mean %.2f Mbps, paper 1.03", dm/1e6)
	}
}

func TestFig9UnmodifiedWorstEarly(t *testing.T) {
	r := RunFig9(3, 3, Runner{})
	if len(r.Curves) != 4 {
		t.Fatalf("%d curves", len(r.Curves))
	}
	byLabel := map[string]Fig9Curve{}
	for _, c := range r.Curves {
		byLabel[c.Label] = c
	}
	mod32 := byLabel["mod. 32ms"]
	unmod := byLabel["unmod. (500ms)"]
	if len(mod32.Points) == 0 || len(unmod.Points) == 0 {
		t.Fatal("empty curves")
	}
	// In the first second, removing the 500 ms wait must help.
	if mod32.Points[0].RelPerf <= unmod.Points[0].RelPerf {
		t.Fatalf("1s window: mod32 %.2f <= unmod %.2f", mod32.Points[0].RelPerf, unmod.Points[0].RelPerf)
	}
	// Converges toward parity by 9 s; the paper reports CellBricks
	// routinely 10-30% *above* TCP after handovers, so accept a band
	// around and above 1.0 (night capacity variance is high).
	lastMod := mod32.Points[len(mod32.Points)-1].RelPerf
	if lastMod < 0.70 || lastMod > 1.50 {
		t.Fatalf("mod32 at 9s = %.2f, want ~0.9-1.3", lastMod)
	}
}

func TestTable1SlowdownEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 in -short mode")
	}
	res := RunTable1(Table1Config{Duration: 4 * time.Minute, Seed: 21})
	if len(res.Cells) != 6 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, night := range []bool{false, true} {
		ip, mos, vid, web := res.Slowdown(night)
		for name, v := range map[string]float64{"iperf": ip, "voip": mos, "video": vid, "web": web} {
			// Paper envelope: -1.61% .. +3.06%; allow a wider but still
			// tight band for the emulation (|slowdown| <= 8%).
			if v < -0.08 || v > 0.08 {
				t.Errorf("night=%v %s slowdown %.2f%% outside ±8%%", night, name, v*100)
			}
		}
	}
	// Sanity on absolute numbers.
	for _, c := range res.Cells {
		if c.Night && (c.CBIperf < 6e6 || c.MNOIperf < 6e6) {
			t.Errorf("%s night iperf too low: MNO %.1f CB %.1f", c.Route, c.MNOIperf/1e6, c.CBIperf/1e6)
		}
		if !c.Night && (c.CBIperf > 1.6e6 || c.CBIperf < 0.8e6) {
			t.Errorf("%s day iperf out of range: %.2f", c.Route, c.CBIperf/1e6)
		}
		if c.CBMOS < 4.0 || c.MNOMOS < 4.0 {
			t.Errorf("%s MOS too low: %.2f/%.2f", c.Route, c.MNOMOS, c.CBMOS)
		}
	}
}

func TestRealDeploymentEndToEnd(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// CellBricks attach over real TCP.
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	a, err := dev.AttachSAP(tx, d.TelcoID())
	if err != nil {
		t.Fatal(err)
	}
	if a.IP == "" {
		t.Fatal("no IP")
	}

	// Pass traffic through the user plane; meter counts at the UE.
	bearer := d.AGW.UserPlane().Lookup(a.IP)
	for i := 0; i < 50; i++ {
		if bearer.Process(time.Duration(i)*10*time.Millisecond, epc.Downlink, 1000) {
			dev.Meter.CountDL(1000)
		}
	}
	// Both reports reach brokerd over the wire and agree.
	if err := d.UploadTelcoReport(a.SessionID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.UploadUEReport(dev, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := d.Broker.Mismatches(); len(got) != 0 {
		t.Fatalf("honest session flagged: %v", got)
	}
	if s := d.Broker.TelcoScore(d.TelcoID()); s < 0.99 {
		t.Fatalf("telco score %.2f", s)
	}

	// Detach (protected NAS over the real wire).
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}

	// Legacy attach over the same deployment.
	ldev, ltx, err := d.NewLegacyUE("001017777777777")
	if err != nil {
		t.Fatal(err)
	}
	la, err := ldev.AttachLegacy(ltx)
	if err != nil {
		t.Fatal(err)
	}
	if la.IP == "" {
		t.Fatal("legacy attach got no IP")
	}
	if err := ldev.Detach(ltx); err != nil {
		t.Fatal(err)
	}
}

func TestRealDeploymentManyUEs(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The paper's scalability claim: many users attach under different
	// conditions. 20 concurrent SAP attaches over real sockets.
	type result struct{ err error }
	results := make(chan result, 20)
	for i := 0; i < 20; i++ {
		go func() {
			dev, tx, err := d.NewCellBricksUE()
			if err != nil {
				results <- result{err}
				return
			}
			if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
				results <- result{err}
				return
			}
			results <- result{dev.Detach(tx)}
		}()
	}
	for i := 0; i < 20; i++ {
		if r := <-results; r.err != nil {
			t.Fatal(r.err)
		}
	}
	if n := d.AGW.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
}

func TestTransportComparison(t *testing.T) {
	res := RunTransportComparisonAll(5, 6*time.Minute, Runner{})
	if len(res) != 4 {
		t.Fatalf("%d transports", len(res))
	}
	byLabel := map[string]TransportComparison{}
	for _, c := range res {
		if c.Pages < 50 {
			t.Errorf("%s: only %d pages (loader wedged?)", c.Label, c.Pages)
		}
		byLabel[c.Label] = c
	}
	// All four strategies keep page loads in the same ballpark — the
	// paper's point that handover overheads average out — and QUIC (no
	// wait, 1-RTT validation) is never slower than deployed MPTCP.
	q, m := byLabel["QUIC migration"], byLabel["MPTCP (500ms wait)"]
	if q.WebLoad > m.WebLoad+200*time.Millisecond {
		t.Errorf("QUIC %v much slower than MPTCP %v", q.WebLoad, m.WebLoad)
	}
	for _, c := range res {
		if c.WebLoad < 500*time.Millisecond || c.WebLoad > 5*time.Second {
			t.Errorf("%s: load %v out of plausible range", c.Label, c.WebLoad)
		}
	}
}

func TestScaleSharedCell(t *testing.T) {
	// 1, 8, and 32 UEs on a 50 Mbps cell: aggregate utilization stays
	// high and capacity is shared roughly fairly.
	var results []ScaleResult
	for _, n := range []int{1, 8, 32} {
		results = append(results, RunScale(ScaleConfig{Seed: 17, N: n, CellBps: 50e6, Duration: 30 * time.Second}))
	}
	for _, r := range results {
		util := r.TotalBps / r.CellBps
		if util < 0.6 || util > 1.05 {
			t.Errorf("n=%d: utilization %.2f", r.N, util)
		}
		if r.N > 1 && r.Fairness < 0.75 {
			t.Errorf("n=%d: Jain fairness %.3f", r.N, r.Fairness)
		}
	}
	// Aggregate must not collapse as UEs multiply.
	if results[2].TotalBps < results[0].TotalBps*0.7 {
		t.Errorf("32-UE aggregate %.1f Mbps << 1-UE %.1f", results[2].TotalBps/1e6, results[0].TotalBps/1e6)
	}
	t.Log("\n" + RenderScale(results))
}

// The AGW's counters over the real deployment: an attach over TCP opens
// one session and counts one attach, and the detach closes it.
func TestRealDeploymentAGWStats(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	attaches := counter("epc_attaches_total")
	if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
		t.Fatal(err)
	}
	if n, active := counter("epc_attaches_total")-attaches, d.AGW.ActiveSessions(); n != 1 || active != 1 {
		t.Fatalf("after attach: %v attaches counted, %d sessions active", n, active)
	}
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}
	if n := d.AGW.ActiveSessions(); n != 0 {
		t.Fatalf("after detach: %d sessions active", n)
	}
}

func TestBilledDriveEndToEnd(t *testing.T) {
	sc := Scenario{Route: mobility.Downtown, Night: true, Arch: ArchCellBricks, Seed: 31, Duration: 6 * time.Minute}
	res, err := RunBilledDrive(sc, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions < 4 {
		t.Fatalf("only %d sessions over a 6-min downtown night drive", res.Sessions)
	}
	if res.Cycles < 10 {
		t.Fatalf("only %d report cycles", res.Cycles)
	}
	// Honest drive: the telco counts at admission, the UE at delivery, so
	// small discrepancies (in-flight loss at detachment) are expected and
	// must be absorbed by the Fig. 5 tolerance.
	if res.Mismatches != 0 {
		t.Fatalf("%d/%d honest cycles flagged", res.Mismatches, res.Cycles)
	}
	if res.TelcoBytes < res.UEBytes {
		t.Fatalf("telco counted %d < UE %d (counter placement inverted?)", res.TelcoBytes, res.UEBytes)
	}
	slack := float64(res.TelcoBytes-res.UEBytes) / float64(res.UEBytes)
	if slack > 0.05 {
		t.Fatalf("admission-vs-delivery gap %.2f%% too large", slack*100)
	}
	// Every session settled and the bTelcos get paid for verified bytes.
	if len(res.Settlements) != res.Sessions {
		t.Fatalf("%d settlements for %d sessions", len(res.Settlements), res.Sessions)
	}
	if res.TotalOwed <= 0 {
		t.Fatal("nothing owed after a data-heavy drive")
	}
	for _, st := range res.Settlements {
		if st.Disputed {
			t.Fatalf("honest session disputed: %+v", st)
		}
	}
}

// TestBilledDriveSettledSessionReportsNoMore: a session ends at its
// settlement. In the AttachLatency window between a settlement and the next
// attach, a report tick has no session to report, and a drive that ends
// there has none to settle again. Seed 195 puts a 5 s tick in the window and
// seed 108 the drive's end. The drives TestParentOutputPins holds, `cbbench
// -exp billing` on seeds 1–7, and the benchmark's drive_emu shape on seeds
// 1–60 never land in it, so none of their outputs moved with the fix.
func TestBilledDriveSettledSessionReportsNoMore(t *testing.T) {
	const cycle = 5 * time.Second
	for _, c := range []struct {
		seed   int64
		endHit bool // the window holds the drive's end, not a tick
	}{{195, false}, {108, true}} {
		sc := Scenario{Route: mobility.Downtown, Night: true, Arch: ArchCellBricks, Seed: c.seed, Duration: time.Minute}.Defaults()
		// The handover instants are the drive's first draws from its sim.
		handovers := sc.Route.Handovers(netem.NewSim(c.seed).Rand(), sc.Night, sc.Duration)
		settling := func(at time.Duration) bool {
			for _, h := range handovers {
				if h <= at && at < h+sc.AttachLatency {
					return true
				}
			}
			return false
		}
		sessions, ticks, tickHit := 1, 0, false
		for _, h := range handovers {
			if h+sc.AttachLatency <= sc.Duration {
				sessions++
			}
		}
		for at := cycle; at < sc.Duration; at += cycle {
			if settling(at) {
				tickHit = true
			} else {
				ticks++
			}
		}
		if tickHit == c.endHit || settling(sc.Duration) != c.endHit {
			t.Fatalf("seed %d: tick in a window %v, end in a window %v; the case is not covered", c.seed, tickHit, settling(sc.Duration))
		}

		res, err := RunBilledDrive(sc, cycle)
		if err != nil {
			t.Fatal(err)
		}
		// Each open tick reports once, and each session once more as it
		// settles.
		if res.Sessions != sessions || len(res.Settlements) != sessions || res.Cycles != ticks+sessions {
			t.Errorf("seed %d: %d sessions, %d settlements, %d cycles; want %d, %d, %d",
				c.seed, res.Sessions, len(res.Settlements), res.Cycles, sessions, sessions, ticks+sessions)
		}
	}
}

func TestBrokerOutageResilience(t *testing.T) {
	// A handover during a 20 s broker outage stalls the attach; MPTCP's
	// 60 s address watchdog rides it out and the connection resumes.
	base := Scenario{Route: mobility.Highway, Night: true, Arch: ArchCellBricks, Seed: 41, Duration: 4 * time.Minute}
	w := NewWorld(base)
	if len(w.Handovers) == 0 {
		t.Fatal("no handovers")
	}
	ho := w.Handovers[0]
	short := base
	short.BrokerDownAt = ho - time.Second
	short.BrokerDownFor = 20 * time.Second
	ws := NewWorld(short)
	res := apps.NewIperf(ws.Sim, ws.Conn, time.Second).Run(short.Duration)
	if ws.Conn.Closed() {
		t.Fatal("connection died despite outage < MPTCP timeout")
	}
	if res.AvgBps <= 0 {
		t.Fatal("no throughput after broker recovery")
	}

	// An outage longer than the 60 s watchdog kills active connections:
	// the availability cost the architecture concentrates on the broker.
	long := base
	long.BrokerDownAt = ho - time.Second
	long.BrokerDownFor = 90 * time.Second
	wl := NewWorld(long)
	apps.NewIperf(wl.Sim, wl.Conn, time.Second).Run(long.Duration)
	if !wl.Conn.Closed() {
		t.Fatal("connection survived a 90s broker outage (timeout not enforced)")
	}
}

// newGeoWorld builds a World whose handover instants come from the radio
// geometry instead of the statistical schedule: a ran.Mobile drives past
// a linear deployment of single-tower bTelcos at the route's speed, and
// each hysteresis-filtered strongest-cell change (sampled every 100 ms)
// becomes a detach + SAP re-attach. This ties the UE-driven,
// network-assisted cell selection of §4.2 into the data-plane emulation.
func newGeoWorld(sc Scenario, towers int) (*World, []ran.HandoverEvent) {
	sc = sc.Defaults()
	deployment := ran.LinearDeployment(towers, sc.Route.TowerSpacingM, func(i int) string {
		return fmt.Sprintf("geo-btelco-%d", i)
	})
	mobile := ran.NewMobile(deployment, sc.Route.Speed(sc.Night))
	const tick = 100 * time.Millisecond
	var events []ran.HandoverEvent
	at := []time.Duration{} // non-nil even for a drive with no handover
	for now := time.Duration(0); now < sc.Duration; now += tick {
		if ev := mobile.Advance(now, tick); ev != nil {
			events = append(events, *ev)
			at = append(at, ev.At)
		}
	}
	return newWorld(sc, at, "ue"), events
}

func TestGeoWorldMatchesCalibratedMTTHO(t *testing.T) {
	sc := Scenario{Route: mobility.Highway, Night: true, Arch: ArchCellBricks, Seed: 43, Duration: 8 * time.Minute}
	w, events := newGeoWorld(sc, 64)
	if len(events) < 10 {
		t.Fatalf("only %d geometric handovers", len(events))
	}
	// Every handover in the single-tower-per-bTelco corridor crosses a
	// provider boundary.
	for _, ev := range events {
		if !ev.CrossesTelco {
			t.Fatal("geo handover within one bTelco in a one-tower-per-bTelco corridor")
		}
	}
	// The geometric inter-handover time must agree with the calibrated
	// statistical MTTHO (same spacing, same speed).
	mean := (events[len(events)-1].At - events[0].At) / time.Duration(len(events)-1)
	want := sc.Route.MTTHO(true)
	if mean < want*85/100 || mean > want*115/100 {
		t.Fatalf("geo MTTHO %v, calibrated %v", mean, want)
	}
	// And the data plane survives the geometric drive.
	res := apps.NewIperf(w.Sim, w.Conn, time.Second).Run(sc.Duration)
	if w.Conn.Closed() || res.AvgBps < 3e6 {
		t.Fatalf("geo drive: closed=%v avg=%.1f Mbps", w.Conn.Closed(), res.AvgBps/1e6)
	}
	// QUIC has no address-worker wait on the geometric drive either: the
	// scenario's MPTCP wait (500 ms by default) must not reach it.
	quic := sc
	quic.Duration, quic.Protocol = 2*time.Minute, mptcp.ProtoQUIC
	noWait := quic
	noWait.MPTCPWait = time.Nanosecond
	var avg [2]float64
	for i, s := range []Scenario{quic, noWait} {
		gw, _ := newGeoWorld(s, 64)
		avg[i] = apps.NewIperf(gw.Sim, gw.Conn, time.Second).Run(s.Duration).AvgBps
	}
	if avg[0] != avg[1] {
		t.Fatalf("geo QUIC drive waited for the MPTCP address worker: %.0f bps, %.0f bps without the wait", avg[0], avg[1])
	}
}

func TestGrantedAMBREnforcedInPath(t *testing.T) {
	// The broker's qosInfo is not advisory: the bTelco user plane sits on
	// the data path and polices the granted AMBR. Grant 4 Mbps on a
	// 15 Mbps night cell and the download tracks the grant, with the
	// bearer counting every byte for billing.
	sc := Scenario{Route: mobility.Downtown, Night: true, Arch: ArchCellBricks, Seed: 51, Duration: 2 * time.Minute}
	sc = sc.Defaults()
	sim := netem.NewSim(sc.Seed)
	op := mobility.NewOperator(sc.Seed + 1)
	link := op.CellularLink(sc.Route, sc.Night)

	up := epc.NewUserPlane()
	bearer := up.CreateBearer(1, "qos-ue", qos.Params{QCI: qos.QCIWebTCPDefault, DLAmbrBps: 4e6, ULAmbrBps: 2e6})
	link.Transit = func(p *netem.Packet, at time.Duration) bool {
		dir := epc.Uplink
		if p.Dst == "qos-ue" {
			dir = epc.Downlink
		}
		return bearer.Process(at, dir, p.Size)
	}
	sim.Connect(ServerIP, "qos-ue", link)
	conn := mptcp.NewConn(sim, ServerIP, "qos-ue", mptcp.DefaultConfig())
	res := apps.NewIperf(sim, conn, time.Second).Run(sc.Duration)

	if res.AvgBps > 4.4e6 {
		t.Fatalf("goodput %.2f Mbps exceeds the 4 Mbps grant", res.AvgBps/1e6)
	}
	if res.AvgBps < 2.4e6 {
		t.Fatalf("goodput %.2f Mbps far below the grant", res.AvgBps/1e6)
	}
	u := bearer.Usage()
	if u.DLBytes == 0 || u.DLDropped == 0 {
		t.Fatalf("bearer usage = %+v (no accounting or no policing)", u)
	}
	// The bearer's count covers at least what the receiver got (headers
	// and retransmissions make it strictly larger).
	if u.DLBytes < res.Delivered {
		t.Fatalf("bearer counted %d < delivered %d", u.DLBytes, res.Delivered)
	}
}
