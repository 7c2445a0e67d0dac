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

	f := &fallbackLoader{
		sim:  sim,
		path: newAccessPath(sim, sc.Seed, sc.Route, sc.Night, "web-ue"),
		sc:   sc,
	}
	f.dial(f.path.ip)
	for _, at := range sc.Route.Handovers(sim.Rand(), sc.Night, sc.Duration) {
		sim.At(at, f.handover)
	}
	f.end = sim.Now() + sc.Duration
	f.startPage()
	sim.RunUntil(f.end)
	f.done = true

	res := apps.WebResult{LoadTimes: f.loads, Pages: len(f.loads)}
	if len(f.loads) > 0 {
		var sum time.Duration
		for _, d := range f.loads {
			sum += d
		}
		res.AvgLoad = sum / time.Duration(len(f.loads))
	}
	return res
}

// The page is apps.Web's (apps/web.go: 850 KiB in 22 rounds, 1 s between
// pages), so the transport comparison varies only the transport. The
// loader re-implements Web's page loop around connection swaps and so
// restates its unexported calibration; a change there must be made here.
const (
	fallbackRounds     = 22
	fallbackRoundBytes = 850 * 1024 / fallbackRounds
	fallbackGap        = time.Second
)

// fallbackLoader is the resumable page loader over throwaway TCP
// connections.
type fallbackLoader struct {
	sim  *netem.Sim
	path *accessPath
	sc   Scenario

	conn  *mptcp.Conn
	gen   int // connection generation, to ignore stale callbacks
	loads []time.Duration
	end   time.Duration
	done  bool

	// Page state.
	pageActive bool
	pageStart  time.Duration
	round      int
	roundLeft  int // bytes still owed in the current round
	target     uint64
	inFlight   bool
}

// dial opens a plain TCP connection to the UE's address ip.
func (f *fallbackLoader) dial(ip string) {
	f.conn = mptcp.NewConn(f.sim, ServerIP, ip, mptcp.Config{Multipath: false})
	f.gen++
	gen := f.gen
	f.conn.OnDeliver = func(int) { f.onBytes(gen) }
}

// handover kills the connection; after the attach completes the loader
// redials and resumes the interrupted round with a ranged request.
func (f *fallbackLoader) handover() {
	if f.done {
		return
	}
	// Bytes still missing from the in-flight round.
	remaining := 0
	if f.inFlight {
		remaining = int(f.target) - int(f.conn.Delivered())
		if remaining < 0 {
			remaining = 0
		}
	}
	f.conn.AddrInvalidated() // plain TCP: the connection dies
	newIP := f.path.rehome()
	// d (attach) + TCP handshake (one round trip on the new path).
	redialAt := f.sc.AttachLatency + 2*f.sc.Route.Delay
	rem := remaining
	inFlight := f.inFlight
	f.inFlight = false
	f.sim.After(redialAt, func() {
		if f.done {
			return
		}
		f.dial(newIP)
		switch {
		case inFlight:
			// L7 restart: re-request only the missing range, costing one
			// more application round trip.
			f.requestBytes(rem)
		case f.pageActive:
			// The handover hit between requests (a think window whose
			// timer died with the old connection): re-issue the round.
			f.requestBytes(fallbackRoundBytes)
		default:
			// Between pages: the gap timer is still pending; nothing to
			// resume.
		}
	})
}

func (f *fallbackLoader) startPage() {
	if f.done || f.sim.Now() >= f.end {
		return
	}
	f.pageStart = f.sim.Now()
	f.pageActive = true
	f.round = 0
	f.nextRound()
}

func (f *fallbackLoader) nextRound() {
	if f.done || f.sim.Now() >= f.end {
		return
	}
	f.round++
	f.requestBytes(fallbackRoundBytes)
}

// requestBytes issues one application request after a think round trip.
func (f *fallbackLoader) requestBytes(n int) {
	rtt := f.conn.SRTT()
	if rtt < 30*time.Millisecond {
		rtt = 30 * time.Millisecond
	}
	gen := f.gen
	f.sim.After(rtt, func() {
		if f.done || gen != f.gen {
			return
		}
		f.roundLeft = n
		f.target = f.conn.Delivered() + uint64(n)
		f.inFlight = true
		f.conn.Write(n)
	})
}

func (f *fallbackLoader) onBytes(gen int) {
	if f.done || gen != f.gen || !f.inFlight || f.conn.Delivered() < f.target {
		return
	}
	f.inFlight = false
	if f.round < fallbackRounds {
		f.nextRound()
		return
	}
	f.pageActive = false
	f.loads = append(f.loads, f.sim.Now()-f.pageStart)
	f.sim.After(fallbackGap, f.startPage)
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
