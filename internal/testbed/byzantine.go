package testbed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// This file is the Byzantine soak: a Jepsen-style experiment in which a
// seeded fraction of bTelcos actively misbehaves — over/under-reporting
// usage, replaying stale signed reports, accepting attaches and then
// blackholing the data path, dropping NAS signaling and handover attaches
// — while the full detection-to-response loop runs against them: the
// billing verifier's mismatch/replay checks and UE watchdog evidence feed
// reputation, reputation feeds the broker's dynamic quarantine, quarantine
// revokes live sessions and denies re-attach, and UEs steer their retry
// state machines away from quarantined cells. After the run a set of
// invariants is checked: every adversary quarantined, no honest bTelco
// touched, every UE converged to an honest cell, overbilling bounded by
// the verifier's tolerance, and the attach-availability SLO held.
//
// The world shards (netem.World): UEs and cells are partitioned into
// groups, group g living entirely on shard g mod K; only control traffic
// (attaches, billing reports, watchdog evidence, quarantine revocations)
// crosses shards, over per-group gateway links to a broker endpoint on
// shard 0. Three rules make the output byte-identical for any K:
//
//   - All broker state is mutated only inside shard-0 packet handlers, so
//     the canonical cross-shard arrival order fully serializes it.
//   - No entity ever draws from a shard's rng; every UE, cell adversary
//     and fault schedule carries its own seeded source.
//   - Every cross-shard send is placed on its sender's private time
//     lattice (whole milliseconds plus a per-entity microsecond phase) and
//     every gateway link gets a distinct prime-offset delay, so no two
//     packets from different senders ever arrive at one endpoint at the
//     same instant — the tie that would otherwise order by shard number.

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

	CellBps        float64       // per-cell air-interface capacity (default 20 Mbps)
	ReportEvery    time.Duration // billing report cadence (default 3 s)
	WatchdogWindow time.Duration // UE no-goodput window (default 4 s)
	// AvailabilitySLO is the minimum mean fraction of the horizon a UE
	// must hold an attachment (default 0.9).
	AvailabilitySLO float64

	// Retry tunes the UE attach state machine (default: 12 attempts,
	// 20% jitter, 2 s max backoff).
	Retry ue.RetryPolicy

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
	if c.Groups <= 0 {
		c.Groups = 4
	}
	if c.CellsPerGroup <= 0 {
		c.CellsPerGroup = 2
	}
	if c.UEsPerGroup <= 0 {
		c.UEsPerGroup = 6
	}
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
	if c.ReportEvery == 0 {
		c.ReportEvery = 3 * time.Second
	}
	if c.WatchdogWindow == 0 {
		c.WatchdogWindow = 4 * time.Second
	}
	if c.AvailabilitySLO == 0 {
		c.AvailabilitySLO = 0.9
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 12
	}
	if c.Retry.MaxBackoff == 0 {
		c.Retry.MaxBackoff = 2 * time.Second
	}
	if c.Retry.JitterFrac == 0 {
		c.Retry.JitterFrac = 0.2
	}
	c.Retry = c.Retry.WithDefaults()
	if c.Shards < 1 {
		c.Shards = 1
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
	byzBrokerName   = "byz-broker"
	byzNASTimeout   = time.Second
	byzAttachLat    = 31680 * time.Microsecond
	byzWatchdogTick = time.Second
	// byzSLOPhase is the sub-millisecond phase of the 1 Hz SLO engine
	// tick on shard 0. UE lattice phases are whole microseconds (<= 999
	// µs) and gateway offsets add g*1009 ns, so no packet arrival can
	// land on a half-microsecond instant for any plausible group count —
	// the tick never ties with a handler.
	byzSLOPhase = 999500 * time.Nanosecond
)

var errByzNASTimeout = errors.New("testbed: NAS attach timed out")

type byzSession struct {
	ue    *byzUE
	cell  *byzCell
	uref  string
	start time.Duration
	live  bool
	link  *netem.Link
	dl    uint64 // honest delivered-byte counter (shared tap with the UE meter)
	seq   uint32
	last  *billing.SealedReport // previous sealed telco report, for replay
}

type byzCell struct {
	grp    *byzGroup
	idx    int // index within the group
	global int
	idT    string
	telco  *sap.TelcoState
	adv    *chaos.Adversary // nil for honest cells
	dl, ul *netem.Shaper

	sessions []*byzSession
	wdLocal  int             // watchdog trips charged to this cell UE-side
	slo      *obs.SLOTracker // per-cell overbilling ratio window
}

type byzUE struct {
	grp    *byzGroup
	idx    int
	global int
	phase  time.Duration
	rng    *rand.Rand

	st    *sap.UEState
	meter *ue.BasebandMeter
	conn  *mptcp.Conn
	wd    *ue.Watchdog
	srvIP string
	curIP string
	incar int

	sess      *byzSession
	attachSeq int
	fsm       *ue.AttachFSM
	prefer    int
	handover  bool

	badLocal  []bool
	lastScore []float64
	stickCi   int // cell to re-try after a NAS timeout (3GPP T3411 idiom)
	stickLeft int

	blackholed    bool
	attachedSince time.Duration
	attachedDur   time.Duration
	stormStart    time.Duration // when the current attach storm began
}

type byzGroup struct {
	w     *byzWorld
	idx   int
	sim   *netem.Sim
	cells []*byzCell
	ues   []*byzUE

	// Shard-local tallies, merged after the run.
	attempts, attaches, denied int
	nasDrops, giveups          int
	kicks, roams, wdTrips      int
}

type byzWorld struct {
	brokerMailbox
	cfg       ByzantineConfig
	groups    []*byzGroup
	brk       *broker.Brokerd
	brokerPub pki.PublicIdentity

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
	w := &byzWorld{
		brokerMailbox: newBrokerMailbox(cfg.Seed, cfg.Shards, byzBrokerName, "byz-gw-%d"),
		cfg:           cfg,
		telcoLoc:      make(map[string]*byzCell),
	}
	cfg.Tracer.SetClock(w.sim0.Now)

	// Control plane: seeded principals, fixed certificate epoch.
	epoch := time.Unix(1_760_000_000, 0)
	ca, err := pki.NewCAFromSeed("byz-ca", entitySeed(101, 0))
	if err != nil {
		return nil, err
	}
	brokerKey, err := pki.KeyPairFromSeed(entitySeed(102, 0))
	if err != nil {
		return nil, err
	}
	bcfg := broker.DefaultConfig(byzBrokerName, brokerKey, ca.Public())
	bcfg.Now = func() time.Time { return epoch }
	// Quarantine is the sole admission gate under test; a fast EWMA and a
	// generous in-flight slack keep honest skew invisible while brazen
	// misbehavior crosses the threshold within a couple of report cycles.
	bcfg.MinTelcoScore = 0
	bcfg.VerifierConfig = billing.VerifierConfig{
		Epsilon:           0.05,
		Alpha:             0.25,
		SuspectTelcoCount: 100, // UEs here are honest; don't suspect the kicked
		SlackBytes:        32 << 10,
		MaxMismatches:     512,
	}
	w.brk = broker.New(bcfg)
	w.brokerPub = brokerKey.Public()
	w.brk.EnableQuarantine(broker.QuarantineConfig{
		EnterBelow: 0.7,
		ExitAbove:  0.9,
		// Longer than the horizon: a quarantined adversary stays blocked
		// through the end of the run (the trial path is unit-tested).
		Probation: 2 * cfg.Duration,
	}, w.sim0.Now)

	// Windowed SLOs, evaluated at 1 Hz on the broker's shard. Crossings
	// become trace instants and counters; a per-cell overbilling breach
	// additionally files broker evidence (the optional detection signal),
	// so the SLO engine is part of the closed loop, not just reporting.
	obWindow := 4 * cfg.ReportEvery
	obBound := 1 + bcfg.VerifierConfig.Epsilon
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
				score := w.brk.ReportSLOBreach(idT, 1)
				cfg.Tracer.Event("slo", "signal", map[string]string{
					"telco": idT, "score": fmt.Sprintf("%.3f", score),
				})
			}
		}
	})
	w.sloAvail = w.slo.Declare(obs.SLOSpec{
		Name: "availability", Kind: obs.SLORatioMin,
		Objective: cfg.AvailabilitySLO, Window: 10 * time.Second, Buckets: 10,
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

	w.placeBroker()

	// Quarantine entry revokes the cell's live sessions: the broker tells
	// the owning group's gateway, which kicks every attached UE into a
	// re-attach away from the cell. The callback runs under the broker's
	// lock inside a shard-0 handler — it only records and sends.
	w.brk.SetQuarantineNotify(func(idT string, entered bool, score float64) {
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
			ci := cell.idx
			w.toGroup(cell.grp.idx, func() { cell.grp.kickCell(ci, score) })
		}
	})

	for g := 0; g < G; g++ {
		grp := &byzGroup{w: w, idx: g, sim: w.addGateway(g % cfg.Shards)}
		w.groups = append(w.groups, grp)

		for c := 0; c < C; c++ {
			global := g*C + c
			key, err := pki.KeyPairFromSeed(entitySeed(110, global))
			if err != nil {
				return nil, err
			}
			idT := fmt.Sprintf("byz-telco-%d-%d", g, c)
			cert := ca.Issue(idT, "btelco", key.Public(), epoch.Add(-time.Hour), epoch.Add(24*time.Hour))
			cell := &byzCell{
				grp:    grp,
				idx:    c,
				global: global,
				idT:    idT,
				telco: &sap.TelcoState{
					IDT: idT, Key: key, Cert: cert,
					Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 1.0},
				},
				dl: netem.NewShaper(netem.ConstantRate(cfg.CellBps), 256*1024, 0),
				ul: netem.NewShaper(netem.ConstantRate(cfg.CellBps), 256*1024, 0),
			}
			cell.dl.MaxQueueTime = 300 * time.Millisecond
			cell.ul.MaxQueueTime = 300 * time.Millisecond
			if c < advPlan[g] {
				cell.adv = chaos.NewAdversary(cfg.Seed + 7000 + int64(global))
				sched := cfg.AdvSpec.Compile(cfg.Seed+1000+int64(global), cfg.Duration)
				hooks := cell.adv.Hooks()
				inner := hooks.Blackhole
				hooks.Blackhole = func(on bool) {
					inner(on)
					cell.setBlackhole(on)
				}
				sched.Replay(grp.sim, hooks)
			}
			cell.slo = w.slo.Declare(obs.SLOSpec{
				Name: "overbill:" + idT, Kind: obs.SLORatioMax,
				Objective: obBound, Window: obWindow, Buckets: 12,
			})
			grp.cells = append(grp.cells, cell)
			w.telcoLoc[idT] = cell
		}

		for j := 0; j < U; j++ {
			global := g*U + j
			key, err := pki.KeyPairFromSeed(entitySeed(120, global))
			if err != nil {
				return nil, err
			}
			idU := w.brk.RegisterUser(key.Public())
			u := &byzUE{
				grp:    grp,
				idx:    j,
				global: global,
				phase:  time.Duration(global+1) * time.Microsecond,
				rng:    rand.New(rand.NewSource(cfg.Seed + 5000 + int64(global))),
				st: &sap.UEState{
					IDU: idU, IDB: byzBrokerName, Key: key, BrokerPub: w.brokerPub,
				},
				wd:        ue.NewWatchdog(cfg.WatchdogWindow),
				srvIP:     fmt.Sprintf("byz-srv-%d-%d", g, j),
				badLocal:  make([]bool, C),
				lastScore: make([]float64, C),
			}
			u.meter = ue.NewBasebandMeter(key, w.brokerPub)
			for i := range u.lastScore {
				u.lastScore[i] = 1
			}
			grp.ues = append(grp.ues, u)
		}
	}
	if nUE+1 >= 1000 {
		return nil, fmt.Errorf("testbed: byzantine soak supports at most 999 UEs (lattice phases), got %d", nUE)
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
			u := u
			grp.sim.At(latticeAt(byzWatchdogTick, u.phase), u.watchdogTick)
			conn := u.conn
			sim := grp.sim
			var topUp func()
			topUp = func() {
				conn.Write(4 << 20)
				sim.After(time.Second, topUp)
			}
			topUp()
			roamAt := cfg.Duration/4 + cfg.Duration/4*time.Duration(u.global)/time.Duration(nUE)
			grp.sim.At(latticeAt(roamAt, u.phase), u.roamTick)
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
	w.sim0.At(byzWatchdogTick+byzSLOPhase, sloTick)
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
	for _, s := range c.sessions {
		if s.live {
			s.link.Down = on
			if on {
				s.ue.blackholed = true
			}
		}
	}
}

// attachTo runs the control-plane half of an attach success on the UE:
// session bookkeeping, meter binding, and the report chain.
func (u *byzUE) attachTo(cell *byzCell, uref string, link *netem.Link) {
	now := u.grp.sim.Now()
	s := &byzSession{ue: u, cell: cell, uref: uref, start: now, live: true, link: link}
	cell.sessions = append(cell.sessions, s)
	u.sess = s
	u.attachedSince = now
	u.meter.StartSession()
	u.meter.BindSession(uref)
	if cell.adv.Blackholing() {
		u.blackholed = true
	}
	u.wd.Arm(now, u.conn.Delivered())
	u.grp.sim.At(latticeAt(now+u.grp.w.cfg.ReportEvery, u.phase), func() { u.reportTick(s) })
}

func (u *byzUE) initialAttach(cell *byzCell) error {
	grp := u.grp
	u.curIP = fmt.Sprintf("byz-ue-%d-%d-0", grp.idx, u.idx)
	link := cell.newAccessLink(u.srvIP, u.curIP)
	grp.sim.Connect(u.srvIP, u.curIP, link)
	u.conn = mptcp.NewConn(grp.sim, u.srvIP, u.curIP, mptcp.Config{
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
		if s := u.sess; s != nil {
			s.dl += uint64(n)
		}
	}

	reqU, pending, err := u.st.NewAttachRequest(cell.idT)
	if err != nil {
		return err
	}
	reqT, err := cell.telco.ForwardRequest(reqU)
	if err != nil {
		return err
	}
	resp, err := u.grp.w.brk.HandleAuthRequest(reqT)
	if err != nil {
		return err
	}
	grant, respU, err := cell.telco.HandleResponse(u.grp.w.brokerPub, resp)
	if err != nil {
		return err
	}
	if _, _, err := u.st.HandleResponse(pending, respU); err != nil {
		return err
	}
	grp.attempts++
	grp.attaches++
	u.lastScore[cell.idx] = resp.TelcoScore
	u.attachTo(cell, grant.URef, link)
	return nil
}

// detach tears the current session down: billing keeps the session record
// for settlement, the data path is disconnected, the watchdog disarmed.
func (u *byzUE) detach() {
	s := u.sess
	if s == nil {
		return
	}
	now := u.grp.sim.Now()
	s.live = false
	u.sess = nil
	u.attachedDur += now - u.attachedSince
	u.wd.Disarm()
	u.conn.AddrInvalidated()
	u.grp.sim.Disconnect(u.srvIP, u.curIP)
}

// startAttach launches the retry state machine preferring group cell
// `prefer`, steering around locally-bad and low-score cells.
func (u *byzUE) startAttach(prefer int, handover bool) {
	u.attachSeq++
	u.prefer, u.handover = prefer, handover
	u.stormStart = u.grp.sim.Now()
	u.stickLeft = 0
	u.fsm = ue.NewAttachFSM(u.grp.w.cfg.Retry, len(u.grp.cells), u.rng)
	u.fsm.SetAvoid(func(i int) bool {
		ci := (u.prefer + i) % len(u.grp.cells)
		return u.badLocal[ci] || u.lastScore[ci] < 0.7
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
	u.grp.attempts++
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
	reqU, pending, err := u.st.NewAttachRequest(cell.idT)
	if err != nil {
		w.fail(err)
		return
	}
	reqT, err := cell.telco.ForwardRequest(reqU)
	if err != nil {
		w.fail(err)
		return
	}
	g := u.grp.idx
	stormStart := u.stormStart
	w.toBroker(g, func() {
		resp, err := w.brk.HandleAuthRequest(reqT)
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
		return
	}
	delay, giveUp := u.fsm.Fail(err)
	if giveUp {
		u.grp.giveups++
		// Budget exhausted: cool off, then start a fresh machine.
		u.after(time.Second, func() {
			if seq == u.attachSeq {
				u.startAttach(u.prefer, u.handover)
			}
		})
		return
	}
	u.after(extra+delay, func() { u.attempt(seq) })
}

// after schedules fn on this UE's private time lattice, so its
// cross-shard sends can never tie with another entity's.
func (u *byzUE) after(d time.Duration, fn func()) {
	u.grp.sim.At(latticeAt(u.grp.sim.Now()+d, u.phase), fn)
}

func (u *byzUE) finishAttach(seq, ci int, pending *sap.PendingAttach, resp *sap.AuthResp) {
	if seq != u.attachSeq {
		return
	}
	cell := u.grp.cells[ci]
	// Reputation rides every SAP reply; remember it for steering.
	u.lastScore[ci] = resp.TelcoScore
	grant, respU, err := cell.telco.HandleResponse(u.grp.w.brokerPub, resp)
	if err != nil {
		u.grp.denied++
		u.failAttach(seq, err, 0)
		return
	}
	if _, _, err := u.st.HandleResponse(pending, respU); err != nil {
		u.grp.w.fail(err)
		return
	}
	u.grp.attaches++
	u.incar++
	newIP := fmt.Sprintf("byz-ue-%d-%d-%d", u.grp.idx, u.idx, u.incar)
	link := cell.newAccessLink(u.srvIP, newIP)
	u.grp.sim.Connect(u.srvIP, newIP, link)
	u.curIP = newIP
	u.attachTo(cell, grant.URef, link)
	conn, sim := u.conn, u.grp.sim
	s := u.sess
	sim.After(byzAttachLat, func() {
		if u.sess == s {
			conn.AddrAvailable(newIP)
		}
	})
}

// reportTick emits the aligned report pair for session s: the UE's sealed
// baseband report and the bTelco's — distorted or replayed when the cell's
// adversary schedule says so. Both ride one control packet, so the broker
// always ingests UE-then-telco per cycle.
func (u *byzUE) reportTick(s *byzSession) {
	w := u.grp.w
	if u.sess != s || w.runErr != nil {
		return
	}
	cell := s.cell
	now := u.grp.sim.Now()
	rel := now - s.start
	ueEnv, err := u.meter.Report(rel)
	if err != nil {
		w.fail(err)
		return
	}
	s.seq++
	tr := &billing.Report{
		SessionRef: s.uref,
		Reporter:   billing.ReporterTelco,
		Seq:        s.seq,
		Rel:        rel,
		DLBytes:    cell.adv.MeterBytes(s.dl),
	}
	tEnv, err := billing.Seal(tr, cell.telco.Key, w.brokerPub)
	if err != nil {
		w.fail(err)
		return
	}
	claimed := tr.DLBytes
	replayed := false
	if cell.adv.ReplayReport() && s.last != nil {
		tEnv = s.last
		replayed = true
	} else {
		s.last = tEnv
	}
	global := cell.global
	idT := cell.idT
	honest := s.dl
	cellSLO := cell.slo
	w.toBroker(u.grp.idx, func() {
		if _, err := w.brk.HandleReport(ueEnv); err != nil {
			w.fail(err)
			return
		}
		mm, err := w.brk.HandleReport(tEnv)
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
	u.grp.sim.At(latticeAt(now+w.cfg.ReportEvery, u.phase), func() { u.reportTick(s) })
}

// watchdogTick is the UE's 1 Hz no-goodput check. A trip files evidence
// with the broker and immediately re-attaches away from the cell.
func (u *byzUE) watchdogTick() {
	w := u.grp.w
	if w.runErr != nil {
		return
	}
	now := u.grp.sim.Now()
	// Availability SLO sample: attached-or-not at the tick instant,
	// shipped to the shard-0 tracker (1 = attached). Sampled before the
	// trip logic so a tripping tick still counts the window it wasted.
	attached := 0.0
	if u.sess != nil {
		attached = 1
	}
	w.toBroker(u.grp.idx, func() {
		w.sloAvail.ObserveRatio(w.sim0.Now(), attached, 1)
	})
	if s := u.sess; s != nil && u.wd.Observe(now, u.conn.Delivered()) {
		u.grp.wdTrips++
		ci := s.cell.idx
		s.cell.wdLocal++
		u.badLocal[ci] = true
		idT := s.cell.idT
		global := s.cell.global
		w.toBroker(u.grp.idx, func() {
			score := w.brk.ReportWatchdog(idT, 1)
			w.wdPerCell[global]++
			w.cfg.Tracer.Event("watchdog", "evidence", map[string]string{
				"telco": idT, "score": fmt.Sprintf("%.3f", score),
			})
		})
		u.detach()
		u.startAttach((ci+1)%len(u.grp.cells), false)
	}
	u.grp.sim.At(latticeAt(now+byzWatchdogTick, u.phase), u.watchdogTick)
}

// roamTick is the UE's recurring mobility event: a handover to the next
// cell of its group (skipped while mid-storm). The chain stops in the
// last 15% of the horizon so the run ends settled, not mid-handover.
func (u *byzUE) roamTick() {
	w := u.grp.w
	if w.runErr != nil {
		return
	}
	if u.sess != nil {
		cur := u.sess.cell.idx
		u.grp.roams++
		u.detach()
		u.startAttach((cur+1)%len(u.grp.cells), true)
	}
	next := u.grp.sim.Now() + w.cfg.Duration/3
	if next < w.cfg.Duration*17/20 {
		u.grp.sim.At(latticeAt(next, u.phase), u.roamTick)
	}
}

// kickCell revokes every live session on group cell ci: the broker
// quarantined its bTelco, so attached UEs are detached and re-attach
// elsewhere (the broker denies the quarantined cell anyway).
func (grp *byzGroup) kickCell(ci int, score float64) {
	cell := grp.cells[ci]
	for _, u := range grp.ues {
		if u.sess != nil && u.sess.cell == cell {
			grp.kicks++
			u.badLocal[ci] = true
			u.lastScore[ci] = score
			u.detach()
			u.startAttach((ci+1)%len(grp.cells), false)
		}
	}
}

// collect builds the result after the world has run to the horizon.
func (w *byzWorld) collect() ByzantineResult {
	cfg := w.cfg
	res := ByzantineResult{Config: cfg, Quarantine: w.quarEvents}

	eps := 0.05
	slack := float64(32 << 10)
	var availSum float64
	var overbillBad []string
	maxOBRatio := 0.0 // worst paid/bound over settled sessions

	for _, grp := range w.groups {
		res.Attempts += grp.attempts
		res.Attaches += grp.attaches
		res.Denied += grp.denied
		res.NASDrops += grp.nasDrops
		res.GiveUps += grp.giveups
		res.Kicks += grp.kicks
		res.Roams += grp.roams
		res.WatchdogTrips += grp.wdTrips
		for _, u := range grp.ues {
			dur := u.attachedDur
			if u.sess != nil {
				dur += cfg.Duration - u.attachedSince
			}
			availSum += float64(dur) / float64(cfg.Duration)
			if u.blackholed {
				res.BlackholedUEs++
			}
		}
		for _, cell := range grp.cells {
			stat := ByzCellStat{
				ID:          cell.idT,
				Adversarial: cell.adv != nil,
				Score:       w.brk.TelcoScore(cell.idT),
				Quarantined: w.brk.Quarantined(cell.idT),
				Sessions:    len(cell.sessions),
				Mismatches:  w.mmPerCell[cell.global],
				Replays:     w.rplPerCell[cell.global],
				Watchdog:    w.wdPerCell[cell.global],
			}
			if e, ok := w.brk.QuarantineInfo(cell.idT); ok {
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
				res.Sessions++
				res.TrueBytes += s.dl
				if s.seq == 0 {
					continue // died before its first report cycle
				}
				st, err := w.brk.SettleSession(s.uref, cfg.ReportEvery)
				if err != nil {
					continue
				}
				res.VerifiedBytes += st.VerifiedBytes
				res.PaidUnits += st.Amount
				bound := float64(s.dl)*(1+eps) + slack + 1
				if ratio := float64(st.VerifiedBytes) / bound; ratio > maxOBRatio {
					maxOBRatio = ratio
				}
				if float64(st.VerifiedBytes) > bound {
					overbillBad = append(overbillBad, fmt.Sprintf("%s paid %d > bound %.0f (true %d)",
						cell.idT, st.VerifiedBytes, bound, s.dl))
				}
			}
		}
	}
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
			case u.sess == nil:
				detached = append(detached, fmt.Sprintf("ue-%d", u.global))
			case u.sess.cell.adv != nil:
				onAdv = append(onAdv, fmt.Sprintf("ue-%d@%s", u.global, u.sess.cell.idT))
			}
		}
	}
	nUE := len(w.groups) * cfg.UEsPerGroup
	converged := float64(nUE-len(onAdv)-len(detached)) / float64(nUE)
	// Margins: the quarantine entry threshold (0.7) anchors the score
	// invariants — how far the worst adversary sits below it, and the
	// worst honest cell above it. Overbilling uses worst paid/bound;
	// availability its distance to the SLO floor.
	inv("adversaries-quarantined",
		len(advFree) == 0, 0.7-maxAdvScore,
		fmt.Sprintf("%d/%d quarantined%s", res.Adversaries-len(advFree), res.Adversaries, byzList(advFree)))
	inv("honest-untouched",
		len(honestDirty) == 0, minHonestScore-0.7,
		fmt.Sprintf("%d honest cells clean%s", len(res.Cells)-res.Adversaries-len(honestDirty), byzList(honestDirty)))
	inv("ues-converged-honest",
		len(onAdv) == 0 && len(detached) == 0, converged-1,
		fmt.Sprintf("%d UEs attached to honest cells%s%s",
			nUE-len(onAdv)-len(detached), byzList(onAdv), byzList(detached)))
	inv("overbilling-bounded",
		len(overbillBad) == 0, 1-maxOBRatio,
		fmt.Sprintf("paid %d vs true %d bytes%s", res.VerifiedBytes, res.TrueBytes, byzList(overbillBad)))
	inv("availability-slo",
		res.Availability >= cfg.AvailabilitySLO, res.Availability-cfg.AvailabilitySLO,
		fmt.Sprintf("%.4f >= %.2f", res.Availability, cfg.AvailabilitySLO))
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
	fmt.Fprintf(&b, "spec=%q report=%v watchdog=%v\n", c.AdvSpec.String(), c.ReportEvery, c.WatchdogWindow)
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
