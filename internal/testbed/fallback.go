package testbed

import (
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/mobility"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
)

// RunWebFallback runs the web workload under CellBricks with *plain TCP*
// and application-layer recovery — the paper's incremental-deployment
// strategy while MPTCP/QUIC deploy: "fallback to TCP and rely on the
// application and/or L7 protocols (e.g. ... HTTP range headers) to
// efficiently restart failed connections."
//
// Each handover kills the TCP connection; the loader redials once the new
// attachment completes (d + one handshake round trip) and resumes the
// current page with a ranged request (one extra application round trip),
// keeping the bytes already received.
func RunWebFallback(sc Scenario) apps.WebResult {
	sc = sc.Defaults()
	sim := netem.NewSim(sc.Seed)
	path := newAccessPath(sim, sc.Seed, sc.Route, sc.Night, "web-ue")
	tcp := mptcp.Config{Multipath: false}
	web := apps.NewWeb(sim, mptcp.NewConn(sim, ServerIP, path.ip, tcp))
	// d (attach) + the TCP handshake (one round trip on the new path).
	redial := path.after(sc.AttachLatency+2*sc.Route.Delay, func(ip string) {
		web.Resume(mptcp.NewConn(sim, ServerIP, ip, tcp))
	})
	path.drive(sc, nil, func() { path.handover(sc, web.Drop, redial) })
	return web.Run(sc.Duration)
}

// RunTransportComparison contrasts the host-transport options the paper
// discusses for CellBricks mobility: deployed MPTCP (500 ms wait),
// modified MPTCP (wait removed), QUIC connection migration, and plain TCP
// with L7 restart — all on the same drive.
type TransportComparison struct {
	Label   string
	WebLoad time.Duration
	Pages   int
}

// RunTransportComparisonAll runs the web workload under each transport.
// The four arms share nothing but the scenario seed, so they fan out
// across the runner; the result order is fixed regardless of scheduling.
func RunTransportComparisonAll(seed int64, dur time.Duration, r Runner) []TransportComparison {
	if dur == 0 {
		dur = 8 * time.Minute
	}
	base := Scenario{Route: mobility.Downtown, Night: true, Arch: ArchCellBricks, Seed: seed, Duration: dur}

	type arm struct {
		label string
		run   func() apps.WebResult
	}
	mptcpMod := base
	mptcpMod.MPTCPWait = time.Nanosecond
	quic := base
	quic.Protocol = mptcp.ProtoQUIC
	quic.MPTCPWait = time.Nanosecond
	arms := []arm{
		{"MPTCP (500ms wait)", func() apps.WebResult { return RunWeb(base) }},
		{"MPTCP (wait removed)", func() apps.WebResult { return RunWeb(mptcpMod) }},
		{"QUIC migration", func() apps.WebResult { return RunWeb(quic) }},
		{"TCP + L7 restart", func() apps.WebResult { return RunWebFallback(base) }},
	}
	return runUnits(r, len(arms), func(i int) TransportComparison {
		res := arms[i].run()
		return TransportComparison{Label: arms[i].label, WebLoad: res.AvgLoad, Pages: res.Pages}
	})
}
