package testbed

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/mobility"
)

// Table1Cell is one route x time-of-day comparison.
type Table1Cell struct {
	Route string
	Night bool

	MTTHO time.Duration // CellBricks run's observed mean time to handover

	MNOPingP50 time.Duration
	CBPingP50  time.Duration
	MNOIperf   float64 // bps
	CBIperf    float64
	MNOMOS     float64
	CBMOS      float64
	MNOVideo   float64 // avg quality level
	CBVideo    float64
	MNOWeb     time.Duration
	CBWeb      time.Duration
}

// Table1Config tunes the Table 1 reproduction.
type Table1Config struct {
	Duration time.Duration // per-cell emulated time (paper: hours of driving)
	Seed     int64
	// Runner schedules the independent cell measurements; the zero value
	// fans out across GOMAXPROCS workers. Results are identical either
	// way — every measurement is its own seed-deterministic simulation.
	Runner Runner
}

// table1Jobs is the number of independent measurements per cell: the
// MTTHO world plus MNO/CB runs of ping, iperf, VoIP, video, and web.
const table1Jobs = 11

// runTable1Job regenerates measurement j of one cell, writing only the
// field(s) that job owns. Each job builds its own simulation from the
// scenario seed, so jobs can run in any order or concurrently.
func runTable1Job(j int, route mobility.Route, night bool, cfg Table1Config, cell *Table1Cell) {
	mk := func(arch Arch) Scenario {
		return Scenario{
			Route: route, Night: night, Arch: arch,
			Seed: cfg.Seed, Duration: cfg.Duration,
		}
	}
	switch j {
	case 0:
		// MTTHO observed from the handover schedule of the CB run.
		w := NewWorld(mk(ArchCellBricks))
		if n := len(w.Handovers); n > 1 {
			cell.MTTHO = (w.Handovers[n-1] - w.Handovers[0]) / time.Duration(n-1)
		} else {
			cell.MTTHO = route.MTTHO(night)
		}
	case 1:
		cell.MNOPingP50, _ = RunPing(mk(ArchBaseline))
	case 2:
		cell.CBPingP50, _ = RunPing(mk(ArchCellBricks))
	case 3:
		cell.MNOIperf = RunIperf(mk(ArchBaseline)).AvgBps
	case 4:
		cell.CBIperf = RunIperf(mk(ArchCellBricks)).AvgBps
	case 5:
		cell.MNOMOS = RunVoIP(mk(ArchBaseline)).MOS
	case 6:
		cell.CBMOS = RunVoIP(mk(ArchCellBricks)).MOS
	case 7:
		cell.MNOVideo = RunVideo(mk(ArchBaseline)).AvgLevel
	case 8:
		cell.CBVideo = RunVideo(mk(ArchCellBricks)).AvgLevel
	case 9:
		cell.MNOWeb = RunWeb(mk(ArchBaseline)).AvgLoad
	case 10:
		cell.CBWeb = RunWeb(mk(ArchCellBricks)).AvgLoad
	}
}

// RunTable1Cell runs all four applications under both architectures for
// one route and time of day.
func RunTable1Cell(route mobility.Route, night bool, cfg Table1Config) Table1Cell {
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Minute
	}
	cell := Table1Cell{Route: route.Name, Night: night}
	cfg.Runner.ForEach(table1Jobs, func(j int) {
		runTable1Job(j, route, night, cfg, &cell)
	})
	return cell
}

// Table1Result is the full table.
type Table1Result struct {
	Cells []Table1Cell
}

// RunTable1 reproduces Table 1: three routes x day/night. The full
// cells × measurements grid (6 × 11 independent simulations) is
// flattened into one unit list so the worker pool stays saturated even
// when one cell's iperf run is much slower than another's ping run.
func RunTable1(cfg Table1Config) Table1Result {
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Minute
	}
	type cellKey struct {
		route mobility.Route
		night bool
	}
	var keys []cellKey
	for _, route := range mobility.Routes() {
		for _, night := range []bool{false, true} {
			keys = append(keys, cellKey{route, night})
		}
	}
	cells := make([]Table1Cell, len(keys))
	for i, k := range keys {
		cells[i] = Table1Cell{Route: k.route.Name, Night: k.night}
	}
	cfg.Runner.ForEach(len(keys)*table1Jobs, func(u int) {
		ci, j := u/table1Jobs, u%table1Jobs
		runTable1Job(j, keys[ci].route, keys[ci].night, cfg, &cells[ci])
	})
	return Table1Result{Cells: cells}
}

// Slowdown aggregates the "Overall Perf. Slowdown" row: mean relative
// regression of CellBricks vs MNO per application per time of day.
// Positive = CellBricks slower.
func (r Table1Result) Slowdown(night bool) (iperf, mos, video, web float64) {
	n := 0
	for _, c := range r.Cells {
		if c.Night != night {
			continue
		}
		n++
		iperf += (c.MNOIperf - c.CBIperf) / c.MNOIperf
		mos += (c.MNOMOS - c.CBMOS) / c.MNOMOS
		video += (c.MNOVideo - c.CBVideo) / c.MNOVideo
		web += (c.CBWeb.Seconds() - c.MNOWeb.Seconds()) / c.MNOWeb.Seconds()
	}
	if n == 0 {
		return
	}
	f := float64(n)
	return iperf / f, mos / f, video / f, web / f
}

// Render prints the table in the paper's layout.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-5s | %7s | %9s %9s | %9s %9s | %5s %5s | %5s %5s | %7s %7s\n",
		"Route", "Time", "MTTHO", "MNO ping", "CB ping", "MNO iperf", "CB iperf", "MNO", "CB", "MNO", "CB", "MNO web", "CB web")
	fmt.Fprintf(&b, "%-9s %-5s | %7s | %9s %9s | %9s %9s | %5s %5s | %5s %5s | %7s %7s\n",
		"", "", "s", "ms p50", "ms p50", "mbps", "mbps", "MOS", "MOS", "level", "level", "s", "s")
	for _, c := range r.Cells {
		tod := "D"
		if c.Night {
			tod = "N"
		}
		fmt.Fprintf(&b, "%-9s %-5s | %7.2f | %9.1f %9.1f | %9.2f %9.2f | %5.2f %5.2f | %5.2f %5.2f | %7.2f %7.2f\n",
			c.Route, tod, c.MTTHO.Seconds(),
			float64(c.MNOPingP50.Microseconds())/1000, float64(c.CBPingP50.Microseconds())/1000,
			c.MNOIperf/1e6, c.CBIperf/1e6,
			c.MNOMOS, c.CBMOS,
			c.MNOVideo, c.CBVideo,
			c.MNOWeb.Seconds(), c.CBWeb.Seconds())
	}
	for _, night := range []bool{false, true} {
		ip, mos, vid, web := r.Slowdown(night)
		tod := "D"
		if night {
			tod = "N"
		}
		fmt.Fprintf(&b, "Overall slowdown (%s): iperf %+.2f%%  VoIP %+.2f%%  video %+.2f%%  web %+.2f%%\n",
			tod, ip*100, mos*100, vid*100, web*100)
	}
	return b.String()
}

// Fig8Result is the throughput timeline around a handover.
type Fig8Result struct {
	Bin       time.Duration
	MNOSeries []float64
	CBSeries  []float64
	Handovers []time.Duration
}

// RunFig8 reproduces Fig. 8: iperf throughput over time for MNO (TCP) vs
// CellBricks (MPTCP with the deployed 500 ms wait), one daytime downtown
// window containing a handover.
func RunFig8(seed int64, dur time.Duration) Fig8Result {
	if dur == 0 {
		dur = 50 * time.Second
	}
	sc := Scenario{Route: mobility.Downtown, Night: false, Seed: seed, Duration: dur}
	cb := sc
	cb.Arch = ArchCellBricks
	cbWorld := NewWorld(cb)
	cbRes := apps.NewIperf(cbWorld.Sim, cbWorld.Conn, time.Second).Run(dur)

	mno := sc
	mno.Arch = ArchBaseline
	mnoWorld := NewWorld(mno)
	mnoRes := apps.NewIperf(mnoWorld.Sim, mnoWorld.Conn, time.Second).Run(dur)

	return Fig8Result{
		Bin:       time.Second,
		MNOSeries: mnoRes.Series,
		CBSeries:  cbRes.Series,
		Handovers: cbWorld.Handovers,
	}
}

// Render prints the two series with handover markers.
func (r Fig8Result) Render() string {
	var b strings.Builder
	ho := map[int]bool{}
	for _, h := range r.Handovers {
		ho[int(h/r.Bin)] = true
	}
	fmt.Fprintf(&b, "%4s  %12s  %12s\n", "t(s)", "MNO (mbps)", "CB (mbps)")
	for i := 0; i < len(r.MNOSeries) && i < len(r.CBSeries); i++ {
		mark := ""
		if ho[i] {
			mark = "  <- handover"
		}
		fmt.Fprintf(&b, "%4d  %12.2f  %12.2f%s\n", i+1, r.MNOSeries[i]/1e6, r.CBSeries[i]/1e6, mark)
	}
	return b.String()
}

// Fig9Point is relative CellBricks/TCP throughput for one window length.
type Fig9Point struct {
	Window  time.Duration
	RelPerf float64 // 1.0 = parity
}

// Fig9Curve is one configuration's curve.
type Fig9Curve struct {
	Label  string
	Points []Fig9Point
}

// Fig9Result holds all curves.
type Fig9Result struct{ Curves []Fig9Curve }

// RunFig9 reproduces Fig. 9: iperf throughput in the n seconds after a
// handover (n = 1..9), normalized to the TCP baseline over the same
// windows, for modified MPTCP (wait removed) at d = 32, 64, 128 ms plus
// unmodified (500 ms wait) MPTCP. Night policy, as in the paper.
func RunFig9(seed int64, trials int, r Runner) Fig9Result {
	return runFig9(seed, trials, 8*time.Minute, r)
}

// fig9MaxWin is the longest post-handover window (seconds) Fig. 9 plots.
const fig9MaxWin = 9

// fig9Unit is the per-(config, trial) result: for every window length n,
// the CB/TCP throughput ratios in handover order. Keeping the individual
// ratios (rather than a partial sum) lets the reassembly below replay the
// float additions in the exact order the sequential code used.
type fig9Unit struct {
	ratios [fig9MaxWin + 1][]float64
}

func runFig9(seed int64, trials int, dur time.Duration, r Runner) Fig9Result {
	if trials <= 0 {
		trials = 3
	}
	type cfg struct {
		label string
		d     time.Duration
		wait  time.Duration
	}
	cfgs := []cfg{
		{"mod. 32ms", 32 * time.Millisecond, time.Nanosecond}, // ~0 wait
		{"mod. 64ms", 64 * time.Millisecond, time.Nanosecond},
		{"mod. 128ms", 128 * time.Millisecond, time.Nanosecond},
		{"unmod. (500ms)", attachLatency, 500 * time.Millisecond},
	}
	bin := 100 * time.Millisecond

	// Each (config, trial) pair is an independent pair of simulations —
	// fan them all out, then reduce per window in canonical
	// (config, trial, handover) order so the sums are bit-identical to a
	// sequential run.
	units := runUnits(r, len(cfgs)*trials, func(u int) fig9Unit {
		c := cfgs[u/trials]
		trial := u % trials
		s := seed + int64(trial)*101
		base := Scenario{Route: mobility.Downtown, Night: true, Seed: s, Duration: dur}
		cb := base
		cb.Arch = ArchCellBricks
		cb.AttachLatency = c.d
		cb.MPTCPWait = c.wait
		cbWorld := NewWorld(cb)
		cbSeries := apps.NewIperf(cbWorld.Sim, cbWorld.Conn, bin).Run(dur).Series

		mno := base
		mno.Arch = ArchBaseline
		mnoWorld := NewWorld(mno)
		mnoSeries := apps.NewIperf(mnoWorld.Sim, mnoWorld.Conn, bin).Run(dur).Series

		var out fig9Unit
		hos := cbWorld.Handovers
		for i, at := range hos {
			// Skip windows that contain the next handover.
			next := dur
			if i+1 < len(hos) {
				next = hos[i+1]
			}
			for n := 1; n <= fig9MaxWin; n++ {
				end := at + time.Duration(n)*time.Second
				if end > next || end > dur {
					break
				}
				cbAvg := seriesAvg(cbSeries, at, end, bin)
				mnoAvg := seriesAvg(mnoSeries, at, end, bin)
				if mnoAvg <= 0 {
					continue
				}
				out.ratios[n] = append(out.ratios[n], cbAvg/mnoAvg)
			}
		}
		return out
	})

	var res Fig9Result
	for ci, c := range cfgs {
		sums := make([]float64, fig9MaxWin+1)
		counts := make([]int, fig9MaxWin+1)
		for trial := 0; trial < trials; trial++ {
			u := units[ci*trials+trial]
			for n := 1; n <= fig9MaxWin; n++ {
				for _, ratio := range u.ratios[n] {
					sums[n] += ratio
					counts[n]++
				}
			}
		}
		curve := Fig9Curve{Label: c.label}
		for n := 1; n <= fig9MaxWin; n++ {
			if counts[n] == 0 {
				continue
			}
			curve.Points = append(curve.Points, Fig9Point{
				Window:  time.Duration(n) * time.Second,
				RelPerf: sums[n] / float64(counts[n]),
			})
		}
		res.Curves = append(res.Curves, curve)
	}
	return res
}

func seriesAvg(series []float64, from, to, bin time.Duration) float64 {
	i0 := int(from / bin)
	i1 := int(to / bin)
	if i1 > len(series) {
		i1 = len(series)
	}
	if i0 >= i1 {
		return 0
	}
	sum := 0.0
	for i := i0; i < i1; i++ {
		sum += series[i]
	}
	return sum / float64(i1-i0)
}

// Render prints the Fig. 9 curves.
func (r Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "elapsed since HO")
	for n := 1; n <= 9; n++ {
		fmt.Fprintf(&b, "%7ds", n)
	}
	fmt.Fprintln(&b)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-16s", c.Label)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "%7.0f%%", p.RelPerf*100)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig10Result is the day-vs-night throughput comparison (Appendix A).
type Fig10Result struct {
	Bin         time.Duration
	DaySeries   []float64
	NightSeries []float64
}

// Stats summarizes one series: mean, peak, stddev (the quantities the
// appendix reports).
func Stats(series []float64) (mean, peak, std float64) {
	if len(series) == 0 {
		return
	}
	for _, v := range series {
		mean += v
		if v > peak {
			peak = v
		}
	}
	mean /= float64(len(series))
	for _, v := range series {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(series)))
	return
}

// RunFig10 reproduces Fig. 10: a long iperf on the downtown route under
// the day and the night policy.
func RunFig10(seed int64, dur time.Duration) Fig10Result {
	if dur == 0 {
		dur = 500 * time.Second
	}
	day := Scenario{Route: mobility.Downtown, Night: false, Arch: ArchCellBricks, Seed: seed, Duration: dur}
	night := day
	night.Night = true
	return Fig10Result{
		Bin:         time.Second,
		DaySeries:   RunIperf(day).Series,
		NightSeries: RunIperf(night).Series,
	}
}

// Render prints the appendix summary plus a coarse timeline.
func (r Fig10Result) Render() string {
	var b strings.Builder
	dm, dp, ds := Stats(r.DaySeries)
	nm, np, ns := Stats(r.NightSeries)
	fmt.Fprintf(&b, "day:   mean %6.2f mbps  peak %6.2f  std %6.2f\n", dm/1e6, dp/1e6, ds/1e6)
	fmt.Fprintf(&b, "night: mean %6.2f mbps  peak %6.2f  std %6.2f\n", nm/1e6, np/1e6, ns/1e6)
	fmt.Fprintf(&b, "night/day mean ratio: %.1fx\n", nm/dm)
	step := len(r.DaySeries) / 25
	if step < 1 {
		step = 1
	}
	fmt.Fprintf(&b, "%6s %10s %12s\n", "t(s)", "day(mbps)", "night(mbps)")
	for i := 0; i < len(r.DaySeries) && i < len(r.NightSeries); i += step {
		fmt.Fprintf(&b, "%6d %10.2f %12.2f\n", i+1, r.DaySeries[i]/1e6, r.NightSeries[i]/1e6)
	}
	return b.String()
}

// RenderFig7 prints the attachment-latency breakdown table.
func RenderFig7(results []AttachBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-3s %9s | %7s %7s %7s %7s %9s %8s\n",
		"placement", "arch", "total", "ue", "enb", "agw", "sdb", "brokerd", "other")
	for _, r := range results {
		ms := func(k string) float64 { return r.Breakdown[k].Seconds() * 1000 }
		fmt.Fprintf(&b, "%-10s %-3s %7.2fms | %7.2f %7.2f %7.2f %7.2f %9.2f %8.2f\n",
			r.Placement.Name, r.Arch, r.Mean.Seconds()*1000,
			ms(SpanUE), ms(SpanENB), ms(SpanAGW), ms(SpanSDB), ms(SpanBrokerd), ms(SpanOther))
	}
	return b.String()
}
