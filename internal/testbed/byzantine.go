package testbed

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/chaos"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
	"cellbricks/internal/obs"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// This file is the Byzantine soak (threat model: DESIGN.md §3.1): a seeded
// fraction of bTelcos misbehaves on a chaos.Adversary schedule while the
// full detection-to-response loop runs against them — billing verdicts and
// UE watchdog evidence feed reputation, reputation feeds quarantine,
// quarantine revokes sessions, UEs steer away — and the invariants collect
// checks must hold at the horizon.
//
// The world is the grouped sharded world of grouped.go: UEs attach and roam
// only within their group, and only control traffic (attaches, billing
// reports, watchdog evidence, quarantine revocations) crosses shards. The
// rules that make the output byte-identical for any shard count are stated
// once, in DESIGN.md §2.6.

// ByzantineConfig parameterizes one Byzantine soak run.
type ByzantineConfig struct {
	Seed     int64
	Duration time.Duration // emulated horizon (default 60 s)

	// Topology: Groups fault-isolated groups of CellsPerGroup bTelco
	// cells and UEsPerGroup subscribers each. UEs attach and roam only
	// within their group (defaults 4 / 2 / 6 = 8 cells, 24 UEs).
	Groups        int
	CellsPerGroup int
	UEsPerGroup   int

	// AdversarialFrac is the fraction of all cells that run the adversary
	// schedule (default 0.25). Adversaries are spread across groups,
	// capped so every group keeps at least one honest cell — the escape
	// hatch the convergence invariant needs.
	AdversarialFrac float64
	// AdvSpec is the chaos spec each adversary compiles with its own seed
	// (default DefaultByzantineSpec: one window of each behavior).
	AdvSpec chaos.Spec

	CellBps float64 // per-cell air-interface capacity (default 20 Mbps)

	// Shards is the netem.World shard count (default 1); output is
	// byte-identical for any value.
	Shards int
	// Tracer, when set, records quarantine transitions, watchdog
	// evidence, billing verdicts and SLO crossings against the simulator
	// clock. Only shard-0 handlers emit, so traced runs render
	// identically.
	Tracer *obs.Tracer
	// DisableSLOSignal cuts the feedback edge from the windowed SLO
	// engine into the broker's quarantine: breaches are still evaluated,
	// rendered and traced, but a per-cell overbilling breach no longer
	// files ReportSLOBreach evidence. The SLO engine itself always runs
	// (independent of Tracer), so tracing on/off stays byte-identical
	// while the detection signal remains deterministic.
	DisableSLOSignal bool
}

// DefaultByzantineSpec is the adversary behavior schedule: one seeded
// window of each Byzantine behavior. The long full-rate overbilling
// window guarantees every adversary eventually produces quarantinable
// billing evidence whatever else its schedule draws.
const DefaultByzantineSpec = "overbill=1x40s@1,underbill=1x12s@0.5,replay=1x10s,blackhole=1x8s,nasdrop=1x12s@0.5,hodrop=1x15s"

// Defaults fills zero fields.
func (c ByzantineConfig) Defaults() ByzantineConfig {
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	gridDefaults(&c.Groups, &c.CellsPerGroup, &c.UEsPerGroup, &c.Shards, 6)
	if c.AdversarialFrac == 0 {
		c.AdversarialFrac = 0.25
	}
	if c.AdversarialFrac < 0 {
		c.AdversarialFrac = 0
	}
	if c.AdvSpec.Empty() {
		spec, err := chaos.ParseSpec(DefaultByzantineSpec)
		if err != nil {
			panic("testbed: DefaultByzantineSpec does not parse: " + err.Error())
		}
		c.AdvSpec = spec
	}
	if c.CellBps == 0 {
		c.CellBps = 20e6
	}
	return c
}

// ByzCellStat is the per-cell row of the soak result.
type ByzCellStat struct {
	ID          string
	Adversarial bool
	Score       float64
	Quarantined bool
	Strikes     int
	Sessions    int
	Mismatches  int // billing mismatches attributed at ingest
	Replays     int // replayed reports rejected at ingest
	Watchdog    int // watchdog evidence received by the broker
	MeterLies   int // reports emitted with a distorted counter
	NASDrops    int
	HODrops     int
}

// ByzQuarEvent is one quarantine transition on the broker clock.
type ByzQuarEvent struct {
	At      time.Duration
	Telco   string
	Entered bool
	Score   float64
}

// ByzInvariant is one post-run check. Margin is the normalized distance
// to the invariant's threshold — positive means headroom, negative means
// violation depth — so a run reports *how close* it came, not just
// pass/fail.
type ByzInvariant struct {
	Name   string
	OK     bool
	Margin float64
	Detail string
}

// ByzantineResult is the outcome of one soak run.
type ByzantineResult struct {
	Config      ByzantineConfig
	Cells       []ByzCellStat
	Adversaries int

	Attaches      int // successful attaches (incl. initial)
	Attempts      int
	Denied        int // broker denials seen by UEs
	NASDrops      int // attach attempts eaten by adversarial NAS drop
	GiveUps       int
	Kicks         int // sessions revoked by quarantine entry
	Roams         int
	WatchdogTrips int

	Sessions      int
	PaidUnits     float64
	VerifiedBytes uint64
	TrueBytes     uint64
	BlackholedUEs int

	Availability float64
	SLO          []obs.SLOReport // windowed SLO summaries, declaration order
	Quarantine   []ByzQuarEvent
	Invariants   []ByzInvariant
	Violations   int
}

const (
	byzNASTimeout     = time.Second
	byzWatchdogTick   = time.Second
	byzReportEvery    = 3 * time.Second // billing report cadence
	byzWatchdogWindow = 4 * time.Second // UE no-goodput window
	// byzAvailabilitySLO is the minimum mean fraction of the horizon a UE
	// must hold an attachment.
	byzAvailabilitySLO = 0.9
)

// byzRetry is the soak UEs' attach machine policy.
var byzRetry = groupedRetry(12)

var errByzNASTimeout = errors.New("testbed: NAS attach timed out")

type byzSession struct {
	sessionCore
	last *billing.SealedReport // previous sealed telco report, for replay
}

type byzCell struct {
	cellCore
	grp    *byzGroup
	adv    *chaos.Adversary // nil for honest cells
	dl, ul *netem.Shaper

	wdLocal int             // watchdog trips charged to this cell UE-side
	slo     *obs.SLOTracker // per-cell overbilling ratio window
}

type byzUE struct {
	ueCore
	grp *byzGroup

	conn  *mptcp.Conn
	wd    *ue.Watchdog
	srvIP string
	curIP string
	link  *netem.Link // the live session's radio link
	incar int

	handover  bool
	badLocal  []bool
	lastScore []float64
	stickCi   int // cell to re-try after a NAS timeout (3GPP T3411 idiom)
	stickLeft int

	blackholed bool
}

type byzGroup struct {
	w     *byzWorld
	idx   int
	cells []*byzCell
	ues   []*byzUE

	// Shard-local tallies, merged after the run.
	denied, nasDrops      int
	kicks, roams, wdTrips int
}

type byzWorld struct {
	groupedWorld
	cfg    ByzantineConfig
	groups []*byzGroup
	quar   broker.QuarantineConfig

	// Shard-0 state: written only by broker-endpoint handlers.
	telcoLoc   map[string]*byzCell
	mmPerCell  []int
	rplPerCell []int
	wdPerCell  []int
	quarEvents []ByzQuarEvent

	// Windowed SLO engine: shard-0 state like the broker. Observations
	// happen only inside shard-0 handlers and the 1 Hz tick runs at a
	// lattice phase no other event can occupy, so evaluation order — and
	// therefore every breach crossing — is identical for any shard count.
	slo         *obs.SLOEngine
	sloAvail    *obs.SLOTracker // attach availability, ratio-min
	sloAttach   *obs.SLOTracker // attach-grant latency, p99
	sloOverbill *obs.SLOTracker // fleet-wide claimed/honest billing ratio
}

// perGroupAdversaries spreads round(frac*total) adversaries over the
// groups, capped at cells-1 per group so every group keeps an honest cell.
func perGroupAdversaries(groups, cells int, frac float64) []int {
	want := int(math.Round(frac * float64(groups*cells)))
	out := make([]int, groups)
	for g := 0; g < groups; g++ {
		n := want / groups
		if g < want%groups {
			n++
		}
		if n > cells-1 {
			n = cells - 1
		}
		out[g] = n
	}
	return out
}

func newByzWorld(cfg ByzantineConfig) (*byzWorld, error) {
	// Quarantine is the sole admission gate under test; a fast EWMA and a
	// generous in-flight slack keep honest skew invisible while brazen
	// misbehavior crosses the threshold within a couple of report cycles.
	gw, err := newGroupedWorld("byz", 100, cfg.Seed, cfg.Shards, func(c *broker.Config) {
		c.MinTelcoScore = 0
		c.VerifierConfig = billing.VerifierConfig{
			Epsilon:           0.05,
			Alpha:             0.25,
			SuspectTelcoCount: 100, // UEs here are honest; don't suspect the kicked
			SlackBytes:        32 << 10,
			MaxMismatches:     512,
		}
	})
	if err != nil {
		return nil, err
	}
	w := &byzWorld{
		groupedWorld: gw,
		cfg:          cfg,
		telcoLoc:     make(map[string]*byzCell),
		quar: broker.QuarantineConfig{
			EnterBelow: 0.7,
			ExitAbove:  0.9,
			// Longer than the horizon: a quarantined adversary stays blocked
			// through the end of the run (the trial path is unit-tested).
			Probation: 2 * cfg.Duration,
		},
	}
	cfg.Tracer.SetClock(w.sim0.Now)
	w.Broker.EnableQuarantine(w.quar, w.sim0.Now)

	// Windowed SLOs, evaluated at 1 Hz on the broker's shard. Crossings
	// become trace instants and counters; a per-cell overbilling breach
	// additionally files broker evidence (the optional detection signal),
	// so the SLO engine is part of the closed loop, not just reporting.
	obWindow := 4 * byzReportEvery
	obBound := 1 + w.Config.VerifierConfig.Epsilon
	sloEnter := obs.Default().Counter("slo_breach_enter_total", "SLO windows crossing into breach")
	sloExit := obs.Default().Counter("slo_breach_exit_total", "SLO windows recovering from breach")
	w.slo = obs.NewSLOEngine()
	w.slo.OnCross(func(t *obs.SLOTracker, st obs.SLOStatus, entered bool) {
		name, ctr := "breach-exit", sloExit
		if entered {
			name, ctr = "breach-enter", sloEnter
		}
		ctr.Add(1)
		cfg.Tracer.Event("slo", name, map[string]string{
			"slo":    t.Spec.Name,
			"value":  fmt.Sprintf("%.4f", st.Value),
			"margin": fmt.Sprintf("%+.4f", st.Margin),
			"burn":   fmt.Sprintf("%.2f", st.Burn),
		})
		if entered && !cfg.DisableSLOSignal {
			if idT := strings.TrimPrefix(t.Spec.Name, "overbill:"); idT != t.Spec.Name {
				score := w.Broker.ReportSLOBreach(idT, 1)
				cfg.Tracer.Event("slo", "signal", map[string]string{
					"telco": idT, "score": fmt.Sprintf("%.3f", score),
				})
			}
		}
	})
	w.sloAvail = w.slo.Declare(obs.SLOSpec{
		Name: "availability", Kind: obs.SLORatioMin,
		Objective: byzAvailabilitySLO, Window: 10 * time.Second, Buckets: 10,
	})
	w.sloAttach = w.slo.Declare(obs.SLOSpec{
		Name: "attach-p99", Kind: obs.SLOLatencyP99,
		Target: 2 * time.Second, Window: 15 * time.Second, Buckets: 15,
	})
	w.sloOverbill = w.slo.Declare(obs.SLOSpec{
		Name: "overbill-all", Kind: obs.SLORatioMax,
		Objective: obBound, Window: obWindow, Buckets: 12,
	})

	G, C, U := cfg.Groups, cfg.CellsPerGroup, cfg.UEsPerGroup
	nUE := G * U
	advPlan := perGroupAdversaries(G, C, cfg.AdversarialFrac)
	w.mmPerCell = make([]int, G*C)
	w.rplPerCell = make([]int, G*C)
	w.wdPerCell = make([]int, G*C)

	// Quarantine entry revokes the cell's live sessions: the broker tells
	// the owning group's gateway, which kicks every attached UE into a
	// re-attach away from the cell. The callback runs under the broker's
	// lock inside a shard-0 handler — it only records and sends.
	w.Broker.SetQuarantineNotify(func(idT string, entered bool, score float64) {
		now := w.sim0.Now()
		w.quarEvents = append(w.quarEvents, ByzQuarEvent{At: now, Telco: idT, Entered: entered, Score: score})
		name := "exit"
		if entered {
			name = "enter"
		}
		cfg.Tracer.Event("quarantine", name, map[string]string{
			"telco": idT, "score": fmt.Sprintf("%.3f", score),
		})
		if cell := w.telcoLoc[idT]; entered && cell != nil {
			w.toGroup(cell.grp.idx, func() { cell.grp.kickCell(cell, score) })
		}
	})

	grid, err := w.layout(cfg.Seed, G, C, U)
	if err != nil {
		return nil, err
	}
	for g, gg := range grid {
		grp := &byzGroup{w: w, idx: g}
		w.groups = append(w.groups, grp)

		for c, cc := range gg.cells {
			cell := &byzCell{
				cellCore: cc,
				grp:      grp,
				dl:       netem.NewShaper(netem.ConstantRate(cfg.CellBps), 256*1024, 0),
				ul:       netem.NewShaper(netem.ConstantRate(cfg.CellBps), 256*1024, 0),
			}
			cell.dl.MaxQueueTime = 300 * time.Millisecond
			cell.ul.MaxQueueTime = 300 * time.Millisecond
			if c < advPlan[g] {
				cell.adv = chaos.NewAdversary(cfg.Seed + 7000 + int64(cell.global))
				sched := cfg.AdvSpec.Compile(cfg.Seed+1000+int64(cell.global), cfg.Duration)
				hooks := cell.adv.Hooks()
				inner := hooks.Blackhole
				hooks.Blackhole = func(on bool) {
					inner(on)
					cell.setBlackhole(on)
				}
				sched.Replay(gg.sim, hooks)
			}
			cell.slo = w.slo.Declare(obs.SLOSpec{
				Name: "overbill:" + cell.telco.IDT, Kind: obs.SLORatioMax,
				Objective: obBound, Window: obWindow, Buckets: 12,
			})
			grp.cells = append(grp.cells, cell)
			w.telcoLoc[cell.telco.IDT] = cell
		}

		for j, uc := range gg.ues {
			u := &byzUE{
				ueCore:    uc,
				grp:       grp,
				wd:        ue.NewWatchdog(byzWatchdogWindow),
				srvIP:     fmt.Sprintf("byz-srv-%d-%d", g, j),
				badLocal:  make([]bool, C),
				lastScore: make([]float64, C),
			}
			for i := range u.lastScore {
				u.lastScore[i] = 1
			}
			grp.ues = append(grp.ues, u)
		}
	}

	// Initial attaches run synchronously before the clock starts: UE j
	// joins cell j mod C of its group, so every cell serves sessions from
	// t=0 and every adversary has evidence-producing traffic.
	for _, grp := range w.groups {
		for _, u := range grp.ues {
			if err := u.initialAttach(grp.cells[u.idx%C]); err != nil {
				return nil, fmt.Errorf("testbed: byzantine initial attach ue %d: %w", u.global, err)
			}
		}
	}

	// Per-UE chains: watchdog ticks, a backlogged sender, and recurring
	// roams — handovers to the next cell, staggered across UEs and
	// repeating every third of the horizon. The churn matters: it keeps
	// every cell fed with evidence-producing sessions (an adversary whose
	// subscribers all walked away would otherwise go quiet and evade
	// quarantine) and it exercises the handover-drop behavior.
	for _, grp := range w.groups {
		for _, u := range grp.ues {
			u.sim.At(latticeAt(byzWatchdogTick, u.phase), u.watchdogTick)
			conn := u.conn
			sim := u.sim
			var topUp func()
			topUp = func() {
				conn.Write(4 << 20)
				sim.After(time.Second, topUp)
			}
			topUp()
			roamAt := cfg.Duration/4 + cfg.Duration/4*time.Duration(u.global)/time.Duration(nUE)
			u.sim.At(latticeAt(roamAt, u.phase), u.roamTick)
		}
	}

	// SLO evaluation chain: 1 Hz on shard 0 at the engine's private phase.
	var sloTick func()
	sloTick = func() {
		w.slo.Tick(w.sim0.Now())
		if next := w.sim0.Now() + byzWatchdogTick; next < cfg.Duration {
			w.sim0.At(next, sloTick)
		}
	}
	w.sim0.At(byzWatchdogTick+shard0TickPhase, sloTick)
	return w, nil
}

// newAccessLink builds the UE's radio link through this cell's shared
// airtime shapers; an actively blackholing cell hands out a dead link
// (accept-then-blackhole).
func (c *byzCell) newAccessLink(srvIP, ueIP string) *netem.Link {
	l := &netem.Link{Delay: 20 * time.Millisecond, MaxQueue: 2 * time.Second}
	if srvIP < ueIP {
		l.ShaperAB, l.ShaperBA = c.dl, c.ul
	} else {
		l.ShaperAB, l.ShaperBA = c.ul, c.dl
	}
	l.Down = c.adv.Blackholing()
	return l
}

// setBlackhole applies the data-path half of the blackhole toggle: every
// live session's radio link goes dark (or recovers), while the control
// plane keeps answering politely.
func (c *byzCell) setBlackhole(on bool) {
	for _, u := range c.grp.ues {
		if u.cur != nil && u.cur.ci == c.idx {
			u.link.Down = on
			if on {
				u.blackholed = true
			}
		}
	}
}

// attachTo is the soak's half of an attach success on the UE: the shared
// session adoption with this world's report chain, then the data-path
// bookkeeping — the session's radio link and the watchdog.
func (u *byzUE) attachTo(cell *byzCell, uref string, sealer *pki.Sealer, link *netem.Link) {
	s := new(byzSession)
	u.link = link
	u.adopt(&cell.cellCore, &s.sessionCore, uref, sealer, byzReportEvery, func() { u.reportTick(s) })
	if cell.adv.Blackholing() {
		u.blackholed = true
	}
	u.wd.Arm(u.sim.Now(), u.conn.Delivered())
}

func (u *byzUE) initialAttach(cell *byzCell) error {
	u.curIP = fmt.Sprintf("byz-ue-%d-%d-0", u.g, u.idx)
	link := cell.newAccessLink(u.srvIP, u.curIP)
	u.sim.Connect(u.srvIP, u.curIP, link)
	u.conn = mptcp.NewConn(u.sim, u.srvIP, u.curIP, mptcp.Config{
		Multipath: true, AddrWorkWait: 500 * time.Millisecond, Timeout: 60 * time.Second,
	})
	prev := u.conn.OnDeliver
	u.conn.OnDeliver = func(n int) {
		if prev != nil {
			prev(n)
		}
		if n <= 0 {
			return
		}
		// One tap feeds both meters: the UE baseband counter and the
		// cell's per-session counter see identical honest values, so any
		// reported divergence is a lie, not skew.
		u.meter.CountDL(n)
		if s := u.cur; s != nil {
			s.dl += uint64(n)
		}
	}

	grant, sealer, resp, err := attach(u.grp.w.Cast, u.st, cell.telco)
	if err != nil {
		return err
	}
	u.attempts++
	u.lastScore[cell.idx] = resp.TelcoScore
	u.attachTo(cell, grant.URef, sealer, link)
	return nil
}

// leave drops the live session — billing keeps the session record for
// settlement, the data path is disconnected, the watchdog disarmed — and
// re-attaches preferring the next cell of the group.
func (u *byzUE) leave(handover bool) {
	next := (u.cur.ci + 1) % len(u.grp.cells)
	u.detach()
	u.wd.Disarm()
	u.conn.AddrInvalidated()
	u.sim.Disconnect(u.srvIP, u.curIP)
	u.startAttach(next, handover)
}

// startAttach launches the retry state machine preferring group cell
// `prefer`, steering around locally-bad and low-score cells.
func (u *byzUE) startAttach(prefer int, handover bool) {
	w := u.grp.w
	u.startStorm(byzRetry, len(u.grp.cells), prefer)
	u.handover = handover
	u.stickLeft = 0
	u.fsm.SetAvoid(func(i int) bool {
		ci := (u.prefer + i) % len(u.grp.cells)
		return u.badLocal[ci] || u.lastScore[ci] < w.quar.EnterBelow
	})
	u.attempt(u.attachSeq)
}

func (u *byzUE) attempt(seq int) {
	w := u.grp.w
	if seq != u.attachSeq || w.runErr != nil {
		return
	}
	ci := (u.prefer + u.fsm.Candidate()) % len(u.grp.cells)
	if u.stickLeft > 0 {
		ci = u.stickCi
	}
	cell := u.grp.cells[ci]
	u.attempts++
	// Adversarial NAS handling happens at the cell, before anything
	// reaches the broker: the UE only ever sees a timeout. As real UEs
	// do (T3411), one timed-out attach is re-tried on the same cell
	// before reselecting, and a failed handover falls back to a plain
	// attach — so a drop-happy adversary cannot bounce every newcomer
	// and starve itself of the sessions whose billing would expose it.
	if cell.adv.DropNAS() || cell.adv.DropHandover(u.handover) {
		u.grp.nasDrops++
		if u.stickLeft > 0 {
			u.stickLeft--
		} else {
			u.stickCi, u.stickLeft = ci, 1
		}
		u.handover = false
		u.failAttach(seq, errByzNASTimeout, byzNASTimeout)
		return
	}
	u.stickLeft = 0
	pending, reqT, err := beginAttach(u.st, cell.telco)
	if err != nil {
		w.fail(err)
		return
	}
	g := u.g
	stormStart := u.stormStart
	w.toBroker(g, func() {
		resp, err := w.Broker.HandleAuthRequest(reqT)
		if err == nil && resp.Granted {
			// Attach-latency SLO sample: storm start to broker grant, on
			// the broker clock (stormStart was captured on the group
			// shard before the send — no cross-shard read).
			now0 := w.sim0.Now()
			w.sloAttach.ObserveDuration(now0, now0-stormStart)
		}
		w.toGroup(g, func() {
			if err != nil {
				u.failAttach(seq, err, 0)
				return
			}
			u.finishAttach(seq, ci, pending, resp)
		})
	})
}

func (u *byzUE) failAttach(seq int, err error, extra time.Duration) {
	if seq != u.attachSeq {
		return // a newer storm superseded this attempt
	}
	if delay, retry := u.backoff(err); retry {
		u.after(extra+delay, func() { u.attempt(seq) })
		return
	}
	// Budget exhausted: cool off, then start a fresh machine.
	u.after(time.Second, func() {
		if seq == u.attachSeq {
			u.startAttach(u.prefer, u.handover)
		}
	})
}

func (u *byzUE) finishAttach(seq, ci int, pending *sap.PendingAttach, resp *sap.AuthResp) {
	if seq != u.attachSeq {
		return
	}
	cell := u.grp.cells[ci]
	// Reputation rides every SAP reply; remember it for steering.
	u.lastScore[ci] = resp.TelcoScore
	grant, _, err := finishAttach(u.grp.w.Cast, u.st, cell.telco, pending, resp)
	if errors.Is(err, errUERejected) {
		u.grp.w.fail(err)
		return
	}
	if err != nil {
		u.grp.denied++
		u.failAttach(seq, err, 0)
		return
	}
	u.incar++
	newIP := fmt.Sprintf("byz-ue-%d-%d-%d", u.g, u.idx, u.incar)
	link := cell.newAccessLink(u.srvIP, newIP)
	u.sim.Connect(u.srvIP, newIP, link)
	u.curIP = newIP
	u.attachTo(cell, grant.URef, pending.Sealer, link)
	conn, s := u.conn, u.cur
	u.sim.After(attachLatency, func() {
		if u.cur == s {
			conn.AddrAvailable(newIP)
		}
	})
}

// reportTick emits the aligned report pair for session s: the UE's sealed
// baseband report and the bTelco's — distorted or replayed when the cell's
// adversary schedule says so.
func (u *byzUE) reportTick(s *byzSession) {
	w := u.grp.w
	if u.cur != &s.sessionCore || w.runErr != nil {
		return
	}
	cell := u.grp.cells[s.ci]
	claimed := cell.adv.MeterBytes(s.dl)
	ueEnv, tEnv, err := w.reportPair(&u.ueCore, &s.sessionCore, cell.telco, claimed)
	if err != nil {
		w.fail(err)
		return
	}
	replayed := false
	if cell.adv.ReplayReport() && s.last != nil {
		tEnv = s.last
		replayed = true
	} else {
		s.last = tEnv
	}
	global := cell.global
	idT := cell.telco.IDT
	honest := s.dl
	cellSLO := cell.slo
	w.toBroker(u.g, func() {
		if _, err := w.Broker.HandleReport(ueEnv); err != nil {
			w.fail(err)
			return
		}
		mm, err := w.Broker.HandleReport(tEnv)
		switch {
		case mm != nil:
			w.mmPerCell[global]++
			w.cfg.Tracer.Event("billing", "mismatch", map[string]string{
				"telco": idT, "seq": strconv.Itoa(int(mm.Seq)),
			})
		case errors.Is(err, billing.ErrReplayedReport):
			w.rplPerCell[global]++
			w.cfg.Tracer.Event("billing", "replay", map[string]string{"telco": idT})
		case err != nil:
			w.fail(err)
		}
		// Overbilling SLO sample: the cell's claimed cumulative bytes
		// against the honest tap, per report cycle. Replayed reports are
		// skipped (the broker rejected the claim outright) and so are
		// cycles with no traffic yet; an honest cell contributes exactly
		// 1.0, so only a lying meter can push a window past 1+epsilon.
		if !replayed && honest > 0 {
			now0 := w.sim0.Now()
			w.sloOverbill.ObserveRatio(now0, float64(claimed), float64(honest))
			cellSLO.ObserveRatio(now0, float64(claimed), float64(honest))
		}
	})
	u.after(byzReportEvery, func() { u.reportTick(s) })
}

// watchdogTick is the UE's 1 Hz no-goodput check. A trip files evidence
// with the broker and immediately re-attaches away from the cell.
func (u *byzUE) watchdogTick() {
	w := u.grp.w
	if w.runErr != nil {
		return
	}
	// Availability SLO sample: attached-or-not at the tick instant,
	// shipped to the shard-0 tracker (1 = attached). Sampled before the
	// trip logic so a tripping tick still counts the window it wasted.
	attached := 0.0
	if u.cur != nil {
		attached = 1
	}
	w.toBroker(u.g, func() {
		w.sloAvail.ObserveRatio(w.sim0.Now(), attached, 1)
	})
	if s := u.cur; s != nil && u.wd.Observe(u.sim.Now(), u.conn.Delivered()) {
		u.grp.wdTrips++
		cell := u.grp.cells[s.ci]
		cell.wdLocal++
		u.badLocal[s.ci] = true
		idT := cell.telco.IDT
		global := cell.global
		w.toBroker(u.g, func() {
			score := w.Broker.ReportWatchdog(idT, 1)
			w.wdPerCell[global]++
			w.cfg.Tracer.Event("watchdog", "evidence", map[string]string{
				"telco": idT, "score": fmt.Sprintf("%.3f", score),
			})
		})
		u.leave(false)
	}
	u.after(byzWatchdogTick, u.watchdogTick)
}

// roamTick is the UE's recurring mobility event: a handover to the next
// cell of its group (skipped while mid-storm). The chain stops in the
// last 15% of the horizon so the run ends settled, not mid-handover.
func (u *byzUE) roamTick() {
	w := u.grp.w
	if w.runErr != nil {
		return
	}
	if u.cur != nil {
		u.grp.roams++
		u.leave(true)
	}
	if u.sim.Now()+w.cfg.Duration/3 < w.cfg.Duration*17/20 {
		u.after(w.cfg.Duration/3, u.roamTick)
	}
}

// kickCell revokes every live session on cell: the broker quarantined its
// bTelco, so attached UEs are detached and re-attach elsewhere (the broker
// denies the quarantined cell anyway).
func (grp *byzGroup) kickCell(cell *byzCell, score float64) {
	for _, u := range grp.ues {
		if u.cur != nil && u.cur.ci == cell.idx {
			grp.kicks++
			u.badLocal[cell.idx] = true
			u.lastScore[cell.idx] = score
			u.leave(false)
		}
	}
}

// collect builds the result after the world has run to the horizon.
func (w *byzWorld) collect() ByzantineResult {
	cfg := w.cfg
	res := ByzantineResult{Config: cfg, Quarantine: w.quarEvents}

	eps := w.Config.VerifierConfig.Epsilon
	slack := float64(w.Config.VerifierConfig.SlackBytes)
	var availSum float64
	var bill ledger
	var overbillBad []string
	maxOBRatio := 0.0 // worst paid/bound over settled sessions

	for _, grp := range w.groups {
		res.Denied += grp.denied
		res.NASDrops += grp.nasDrops
		res.Kicks += grp.kicks
		res.Roams += grp.roams
		res.WatchdogTrips += grp.wdTrips
		for _, u := range grp.ues {
			res.Attempts += u.attempts
			res.Attaches += u.attaches
			res.GiveUps += u.giveups
			availSum += u.attachedFrac(cfg.Duration)
			if u.blackholed {
				res.BlackholedUEs++
			}
		}
		for _, cell := range grp.cells {
			idT := cell.telco.IDT
			stat := ByzCellStat{
				ID:          idT,
				Adversarial: cell.adv != nil,
				Score:       w.Broker.TelcoScore(idT),
				Quarantined: w.Broker.Quarantined(idT),
				Sessions:    len(cell.sessions),
				Mismatches:  w.mmPerCell[cell.global],
				Replays:     w.rplPerCell[cell.global],
				Watchdog:    w.wdPerCell[cell.global],
			}
			if e, ok := w.Broker.QuarantineInfo(idT); ok {
				stat.Strikes = e.Strikes
			}
			if cell.adv != nil {
				res.Adversaries++
				stat.MeterLies = cell.adv.MeterLies
				stat.NASDrops = cell.adv.NASDropped
				stat.HODrops = cell.adv.HandoffDrops
			}
			res.Cells = append(res.Cells, stat)

			for _, s := range cell.sessions {
				st, ok := bill.settle(w.Broker, s)
				if !ok {
					continue
				}
				bound := float64(s.dl)*(1+eps) + slack + 1
				if ratio := float64(st.VerifiedBytes) / bound; ratio > maxOBRatio {
					maxOBRatio = ratio
				}
				if float64(st.VerifiedBytes) > bound {
					overbillBad = append(overbillBad, fmt.Sprintf("%s paid %d > bound %.0f (true %d)",
						idT, st.VerifiedBytes, bound, s.dl))
				}
			}
		}
	}
	res.Sessions, res.TrueBytes, res.VerifiedBytes, res.PaidUnits = bill.sessions, bill.trueBytes, bill.verified, bill.paid
	res.Availability = availSum / float64(len(w.groups)*cfg.UEsPerGroup)
	res.SLO = w.slo.Report()

	// Invariants, each with a normalized margin (headroom when positive,
	// violation depth when negative).
	inv := func(name string, ok bool, margin float64, detail string) {
		res.Invariants = append(res.Invariants, ByzInvariant{Name: name, OK: ok, Margin: margin, Detail: detail})
		if !ok {
			res.Violations++
		}
	}

	var advFree, honestDirty, onAdv, detached []string
	maxAdvScore, minHonestScore := 0.0, 1.0
	for _, st := range res.Cells {
		if st.Adversarial {
			if st.Score > maxAdvScore {
				maxAdvScore = st.Score
			}
			if !st.Quarantined {
				advFree = append(advFree, st.ID)
			}
		} else {
			if st.Score < minHonestScore {
				minHonestScore = st.Score
			}
			if st.Quarantined || st.Strikes > 0 || st.Mismatches > 0 || st.Replays > 0 {
				honestDirty = append(honestDirty, st.ID)
			}
		}
	}
	for _, grp := range w.groups {
		for _, u := range grp.ues {
			switch {
			case u.cur == nil:
				detached = append(detached, fmt.Sprintf("ue-%d", u.global))
			case grp.cells[u.cur.ci].adv != nil:
				onAdv = append(onAdv, fmt.Sprintf("ue-%d@%s", u.global, grp.cells[u.cur.ci].telco.IDT))
			}
		}
	}
	nUE := len(w.groups) * cfg.UEsPerGroup
	converged := float64(nUE-len(onAdv)-len(detached)) / float64(nUE)
	// Margins: the quarantine entry threshold anchors the score
	// invariants — how far the worst adversary sits below it, and the
	// worst honest cell above it. Overbilling uses worst paid/bound;
	// availability its distance to the SLO floor.
	inv("adversaries-quarantined",
		len(advFree) == 0, w.quar.EnterBelow-maxAdvScore,
		fmt.Sprintf("%d/%d quarantined%s", res.Adversaries-len(advFree), res.Adversaries, byzList(advFree)))
	inv("honest-untouched",
		len(honestDirty) == 0, minHonestScore-w.quar.EnterBelow,
		fmt.Sprintf("%d honest cells clean%s", len(res.Cells)-res.Adversaries-len(honestDirty), byzList(honestDirty)))
	inv("ues-converged-honest",
		len(onAdv) == 0 && len(detached) == 0, converged-1,
		fmt.Sprintf("%d UEs attached to honest cells%s%s",
			nUE-len(onAdv)-len(detached), byzList(onAdv), byzList(detached)))
	inv("overbilling-bounded",
		len(overbillBad) == 0, 1-maxOBRatio,
		fmt.Sprintf("paid %d vs true %d bytes%s", res.VerifiedBytes, res.TrueBytes, byzList(overbillBad)))
	inv("availability-slo",
		res.Availability >= byzAvailabilitySLO, res.Availability-byzAvailabilitySLO,
		fmt.Sprintf("%.4f >= %.2f", res.Availability, byzAvailabilitySLO))
	return res
}

func byzList(items []string) string {
	if len(items) == 0 {
		return ""
	}
	return "; offenders: " + strings.Join(items, ", ")
}

// RunByzantine runs the soak and checks its invariants. The error reports
// only harness failures; invariant violations are in the result.
func RunByzantine(cfg ByzantineConfig) (ByzantineResult, error) {
	cfg = cfg.Defaults()
	w, err := newByzWorld(cfg)
	if err != nil {
		return ByzantineResult{Config: cfg}, err
	}
	w.world.RunUntil(cfg.Duration)
	if w.runErr != nil {
		return ByzantineResult{Config: cfg}, fmt.Errorf("testbed: byzantine run: %w", w.runErr)
	}
	return w.collect(), nil
}

// Render produces the deterministic summary: every value derives from
// virtual time and seeded randomness, never from wall clock, map order or
// crypto material — the byte-identity goldens depend on it.
func (r ByzantineResult) Render() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "byzantine seed=%d dur=%v groups=%d cells/grp=%d ues/grp=%d frac=%.2f shards=any\n",
		c.Seed, c.Duration, c.Groups, c.CellsPerGroup, c.UEsPerGroup, c.AdversarialFrac)
	fmt.Fprintf(&b, "spec=%q report=%v watchdog=%v\n", c.AdvSpec.String(), byzReportEvery, byzWatchdogWindow)
	fmt.Fprintf(&b, "%-16s %-6s %6s %5s %7s %5s %4s %4s %4s %5s %5s %4s\n",
		"cell", "role", "score", "quar", "strikes", "sess", "mm", "rpl", "wd", "lies", "nasX", "hoX")
	for _, s := range r.Cells {
		role, quar := "honest", "-"
		if s.Adversarial {
			role = "adv"
		}
		if s.Quarantined {
			quar = "YES"
		}
		fmt.Fprintf(&b, "%-16s %-6s %6.3f %5s %7d %5d %4d %4d %4d %5d %5d %4d\n",
			s.ID, role, s.Score, quar, s.Strikes, s.Sessions, s.Mismatches, s.Replays,
			s.Watchdog, s.MeterLies, s.NASDrops, s.HODrops)
	}
	fmt.Fprintf(&b, "attaches=%d attempts=%d denied=%d nasdrops=%d giveups=%d kicks=%d roams=%d wd_trips=%d\n",
		r.Attaches, r.Attempts, r.Denied, r.NASDrops, r.GiveUps, r.Kicks, r.Roams, r.WatchdogTrips)
	fmt.Fprintf(&b, "billing: sessions=%d paid=%.6f units verified=%d true=%d bytes blackholed_ues=%d\n",
		r.Sessions, r.PaidUnits, r.VerifiedBytes, r.TrueBytes, r.BlackholedUEs)
	fmt.Fprintf(&b, "availability=%.4f\n", r.Availability)
	b.WriteString("slo:\n")
	for _, s := range r.SLO {
		fmt.Fprintf(&b, "  %-24s kind=%-11s last=%.4f worst_margin=%+.4f max_burn=%.2f breaches=%d evals=%d\n",
			s.Name, s.Kind, s.LastValue, s.WorstMargin, s.MaxBurn, s.Breaches, s.Evals)
	}
	b.WriteString("quarantine timeline:\n")
	for _, e := range r.Quarantine {
		dir := "exit"
		if e.Entered {
			dir = "enter"
		}
		fmt.Fprintf(&b, "  t=%-14v %-5s %-16s score=%.3f\n", e.At, dir, e.Telco, e.Score)
	}
	b.WriteString("invariants:\n")
	for _, iv := range r.Invariants {
		verdict := "PASS"
		if !iv.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  %s %-24s margin=%+.4f %s\n", verdict, iv.Name, iv.Margin, iv.Detail)
	}
	fmt.Fprintf(&b, "violations=%d\n", r.Violations)
	return b.String()
}
