package testbed

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/broker"
	"cellbricks/internal/chaos"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/mobility"
	"cellbricks/internal/nas"
	"cellbricks/internal/netem"
	"cellbricks/internal/obs"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// This file is the failover experiment: a bulk transfer rides the emulated
// cellular path while a seeded chaos schedule (internal/chaos) kills links,
// the serving bTelco, and the broker underneath it. The full recovery stack
// is in the loop — UE attach retry state machine with bTelco fallback
// (ue.AttachFSM), broker snapshot/restore with a post-restart load-shedding
// window (broker.Restart), and the typed retry-after hint surviving the
// broker → AGW → NAS → UE round trip. The output quantifies the paper's
// §3 availability claim: outage-to-recovery time and goodput dip per fault,
// reproducible byte-for-byte from (seed, spec).

// FailoverConfig parameterizes one failover run: the downtown day drive
// under the fault spec.
type FailoverConfig struct {
	Seed     int64
	Duration time.Duration
	// Spec is the fault specification; Compile(Seed, Duration) fixes the
	// schedule.
	Spec chaos.Spec
	// Tracer, when set, records the faulted run's protocol events (fault
	// injections, recoveries, handovers, attach storms, broker lifecycle)
	// against the simulator clock. Recording never touches the seeded rng
	// or the event queue, so traced and untraced runs render identically —
	// TestFailoverTraceDoesNotPerturb asserts it.
	Tracer *obs.Tracer
}

const (
	// failoverSnapshotEvery is the broker's snapshot cadence; the last
	// snapshot before a crash is what Restart restores.
	failoverSnapshotEvery = 15 * time.Second
	// failoverShedFor is the post-restart degraded window during which the
	// broker refuses attaches with a retry-after hint.
	failoverShedFor = 2 * time.Second
	// failoverBin is the goodput sampling interval.
	failoverBin = time.Second
)

var (
	// failoverRoute is the drive the faults land on, by day.
	failoverRoute = mobility.Downtown
	// failoverRetry is the UE attach machine's policy: 12 attempts, so the
	// worst-case retry budget exceeds the default broker outage.
	failoverRetry = ue.RetryPolicy{MaxAttempts: 12}.WithDefaults()
)

// Defaults fills zero fields.
func (c FailoverConfig) Defaults() FailoverConfig {
	if c.Duration == 0 {
		c.Duration = 2 * time.Minute
	}
	return c
}

// FaultOutcome is the measured effect of one injected fault.
type FaultOutcome struct {
	Kind chaos.Kind
	At   time.Duration
	Dur  time.Duration
	// Recovery is outage-to-recovery time measured from fault onset:
	// for data-plane faults (flap/pause/corrupt/trunc), until the first
	// delivery after the fault clears; for attach-path faults
	// (broker/crash), until the first successful attach after onset.
	Recovery  time.Duration
	Recovered bool
	// Goodput over [At, At+Dur+2s] in the fault-free baseline run vs this
	// run, and the relative dip.
	BaselineBps float64
	FaultedBps  float64
	DipPct      float64
}

// FailoverResult is the outcome of a failover run pair (baseline+faulted).
type FailoverResult struct {
	Config   FailoverConfig
	Schedule chaos.Schedule

	BaselineBps float64
	FaultedBps  float64
	Outcomes    []FaultOutcome

	Attaches       int // successful attaches (faulted run)
	AttachAttempts int
	AttachRetries  int // failed attempts that were retried
	Fallbacks      int // attaches that moved off the serving bTelco
	GiveUps        int // retry budgets exhausted
	Handovers      int // mobility events (incl. fault-forced)

	Snapshots      int
	BrokerRestores int
	Shed           uint64 // attach requests refused while degraded

	Unrecovered int
}

// recovery watcher: a fault waiting for its recovery signal.
type foWatcher struct {
	outcome *FaultOutcome
	idx     int // fault index in the schedule, keying trace events
	// ready is the earliest instant the signal counts: fault end for
	// data-plane faults, fault onset for attach-path faults.
	ready    time.Duration
	resolved bool
}

// foWorld is the failover world: emulated data plane + in-process
// control plane, both driven by one simulator clock. The data plane is a
// World on the downtown day drive (one simulator: the whole fault domain)
// whose re-attach step is the UE's retry state machine, startAttach.
type foWorld struct {
	cfg FailoverConfig
	*World

	flapped   *netem.Link
	baseLoss  float64
	frameLoss float64

	*core.Cast // Broker is nil while the broker process is down
	lastSnap   []byte

	telcos    [2]*sap.TelcoState
	agws      [2]*epc.AGW
	telcoDown [2]bool
	crashed   int
	serving   int
	ueCB      *sap.UEState

	attachSeq int

	// Causal tracing: each attach storm is one trace. ids mints span IDs
	// deterministically from the seed; the storm fields track the open
	// storm's root span so success/give-up/supersede can close it with an
	// outcome, and the goodput fields arm the first-goodput watch.
	ids          *obs.SpanIDSource
	stormRoot    obs.SpanContext
	stormStart   time.Duration
	stormSession string
	stormOpen    bool
	goodputRoot  obs.SpanContext
	goodputFrom  time.Duration

	dataWatch   []*foWatcher
	attachWatch []*foWatcher

	res    *FailoverResult
	runErr error
}

func newFoWorld(cfg FailoverConfig, res *FailoverResult) (*foWorld, error) {
	sc := Scenario{Route: failoverRoute, Arch: ArchCellBricks, Seed: cfg.Seed, Duration: cfg.Duration}
	w := &foWorld{
		cfg:   cfg,
		World: newWorld(sc.Defaults(), nil, "ft-ip"),
		res:   res,
		ids:   obs.NewSpanIDSource(cfg.Seed),
	}
	w.lost, w.reattach = w.detach, w.startAttach
	// Trace timestamps are virtual time on this run's simulator clock.
	cfg.Tracer.SetClock(w.Sim.Now)

	// Control plane: a seeded cast and a fixed certificate epoch so
	// two runs with the same seed are bit-identical regardless of wall
	// clock.
	var err error
	if w.Cast, err = core.New("ft-ca", core.Seed(81), "broker.failover", core.Seed(82), time.Unix(1_750_000_000, 0), nil); err != nil {
		return nil, err
	}
	if w.ueCB, _, err = w.NewSubscriber(core.Seed(83)); err != nil {
		return nil, err
	}
	for i := range w.telcos {
		if w.telcos[i], err = w.NewTelco(fmt.Sprintf("ft-btelco-%d", i), core.Seed(byte(84+i)), 1.0); err != nil {
			return nil, err
		}
		w.agws[i] = epc.NewAGW(epc.AGWConfig{
			Telco: w.telcos[i], Brokers: epc.StaticDirectory{ID: w.Config.ID, Client: foBrokerClient{w}, Pub: w.BrokerPub},
			Tracer: cfg.Tracer, TraceIDs: w.ids,
		})
	}

	w.baseLoss = w.path.link.Loss

	// Initial attach, synchronously, before the clock starts. It is the
	// first traced session (s0).
	w.openStorm()
	if err := w.tryAttach(0); err != nil {
		return nil, fmt.Errorf("testbed: initial attach: %w", err)
	}
	w.res.Attaches++
	w.res.AttachAttempts++
	root, open := w.stormRoot, w.stormOpen
	w.closeStorm("ok", map[string]string{"telco": w.telcos[0].IDT, "attempts": "1"})
	if open {
		w.tracePhases(root, w.Sim.Now())
	}

	// First snapshot at t=0 so a crash always has state to restore.
	w.snapshot()
	var snapTick func()
	snapTick = func() {
		w.snapshot()
		if w.Sim.Now() < cfg.Duration {
			w.Sim.After(failoverSnapshotEvery, snapTick)
		}
	}
	w.Sim.After(failoverSnapshotEvery, snapTick)
	return w, nil
}

// foBrokerClient is broker.Local over the world's current broker process,
// and fails every call while the process is down.
type foBrokerClient struct{ w *foWorld }

var errBrokerDown = errors.New("testbed: broker unreachable")

func (c foBrokerClient) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	if c.w.Broker == nil {
		return nil, errBrokerDown
	}
	return broker.Local{B: c.w.Broker}.Authenticate(req)
}

func (c foBrokerClient) RedeemReceipt(req *sap.ReceiptReq) (*sap.ReceiptResp, error) {
	if c.w.Broker == nil {
		return nil, errBrokerDown
	}
	return broker.Local{B: c.w.Broker}.RedeemReceipt(req)
}

// AuthenticateCtx implements epc.BrokerClientCtx: the broker hop joins the
// attach trace with a broker/handle-auth span, mirroring what
// broker.ServeTraced records in the real-socket deployment.
func (c foBrokerClient) AuthenticateCtx(sc obs.SpanContext, req *sap.AuthReqT) (*sap.AuthResp, error) {
	w := c.w
	if !sc.Valid() || w.cfg.Tracer == nil {
		return c.Authenticate(req)
	}
	start := w.Sim.Now()
	resp, err := c.Authenticate(req)
	args := map[string]string(nil)
	if err != nil {
		args = map[string]string{"error": err.Error()}
	}
	w.cfg.Tracer.SpanCtx(sc.Child(w.ids.Next()), "broker", "handle-auth", start, w.Sim.Now()-start, args)
	return resp, err
}

// openStorm closes any still-open storm as superseded and mints the root
// span context for the next one (session label = attachSeq). No-op when
// the run is untraced.
func (w *foWorld) openStorm() {
	if w.cfg.Tracer == nil {
		return
	}
	w.closeStorm("superseded", nil)
	w.stormRoot = w.ids.NewTrace()
	w.stormStart = w.Sim.Now()
	w.stormSession = fmt.Sprintf("s%d", w.attachSeq)
	w.stormOpen = true
}

// closeStorm emits the open storm's root span with its outcome. Every
// storm closes exactly one way: ok, giveup, superseded by a newer
// handover, or open at end of run.
func (w *foWorld) closeStorm(outcome string, args map[string]string) {
	if !w.stormOpen {
		return
	}
	w.stormOpen = false
	if args == nil {
		args = map[string]string{}
	}
	args["session"] = w.stormSession
	args["outcome"] = outcome
	w.cfg.Tracer.SpanCtx(w.stormRoot, "attach", "attach-storm",
		w.stormStart, w.Sim.Now()-w.stormStart, args)
}

// tracePhases records the modeled phase breakdown of a successful attach:
// the attachLatency gap between grant and usable address, subdivided under
// the canonical phase names with fixed fractions, and arms the
// first-goodput watch on the data path. The protocol spans recorded by the
// ue/epc/broker layers carry causality; these carry the Fig. 7-shaped
// durations a timeline renders.
func (w *foWorld) tracePhases(root obs.SpanContext, now time.Duration) {
	const d = attachLatency
	cs := d / 8
	aka := d / 4
	auth := d * 3 / 8
	bearer := d - cs - aka - auth
	t := now
	for _, ph := range []struct {
		cat, name string
		dur       time.Duration
	}{
		{"ran", sap.PhaseCellSelect, cs},
		{"ue", sap.PhaseAKA, aka},
		{"sap", sap.PhaseSAPAuth, auth},
		{"epc", sap.PhaseBearerSetup, bearer},
	} {
		w.cfg.Tracer.SpanCtx(root.Child(w.ids.Next()), ph.cat, ph.name, t, ph.dur, nil)
		t += ph.dur
	}
	w.goodputRoot = root
	w.goodputFrom = now + d
}

// resolveGoodput closes the pending first-goodput span: attach-complete to
// the first user-plane delivery afterwards.
func (w *foWorld) resolveGoodput(now time.Duration) {
	if !w.goodputRoot.Valid() || now < w.goodputFrom {
		return
	}
	w.cfg.Tracer.SpanCtx(w.goodputRoot.Child(w.ids.Next()), "app", sap.PhaseFirstGoodput,
		w.goodputFrom, now-w.goodputFrom, nil)
	w.goodputRoot = obs.SpanContext{}
}

// nasUplink models the radio/S1 leg between a UE and bTelco ti's AGW,
// recording a wire span (child of the envelope's context) around NAS
// handling when the attach is traced.
func (w *foWorld) nasUplink(ti int, ranID string, envelope []byte) ([]byte, error) {
	_, sc, _, scErr := nas.SplitEnvelope(envelope)
	traced := scErr == nil && sc.Valid() && w.cfg.Tracer != nil
	start := w.Sim.Now()
	reply, err := w.agws[ti].HandleNAS(ranID, envelope)
	if traced {
		args := map[string]string{"ran": ranID, "bytes": strconv.Itoa(len(envelope))}
		if err != nil {
			args["error"] = err.Error()
		}
		w.cfg.Tracer.SpanCtx(sc.Child(w.ids.Next()), "wire", "nas-uplink",
			start, w.Sim.Now()-start, args)
	}
	return reply, err
}

func (w *foWorld) snapshot() {
	if w.Broker != nil {
		w.lastSnap = w.Broker.Snapshot()
		w.res.Snapshots++
		w.cfg.Tracer.Event("broker", "snapshot", nil)
	}
}

// tryAttach performs one SAP attach attempt through bTelco ti, with a
// fresh device identity per attempt (AGW sessions are keyed by RAN id).
func (w *foWorld) tryAttach(ti int) error {
	if w.telcoDown[ti] {
		return fmt.Errorf("testbed: btelco %d down", ti)
	}
	ranID := fmt.Sprintf("ft-ue-%d", w.res.AttachAttempts)
	dev := ue.NewDevice(ranID, nil, w.ueCB)
	if w.stormOpen {
		dev.TraceAttach(w.cfg.Tracer, w.ids, w.stormRoot)
	}
	_, err := dev.AttachSAP(func(envelope []byte) ([]byte, error) {
		if w.telcoDown[ti] {
			return nil, fmt.Errorf("testbed: btelco %d died mid-attach", ti)
		}
		return w.nasUplink(ti, ranID, envelope)
	}, w.telcos[ti].IDT)
	return err
}

// detach is the failover world's half of a handover before the rehome:
// count and trace it, and the address dies.
func (w *foWorld) detach() {
	w.res.Handovers++
	w.cfg.Tracer.Event("mobility", "handover", map[string]string{
		"n": strconv.Itoa(w.res.Handovers),
	})
	w.Conn.AddrInvalidated()
}

// startAttach is the re-attach step: the fresh tower link takes the frame
// loss in force, and the retry state machine runs for the UE's new
// address. Attempts run as simulator events; each failure schedules the
// next attempt after the machine's backoff (retry-after hints floor it),
// and a later handover supersedes the whole storm via attachSeq.
func (w *foWorld) startAttach(newIP string) {
	w.baseLoss = w.path.link.Loss
	w.applyFrameLoss()
	w.attachSeq++
	seq := w.attachSeq
	fsm := ue.NewAttachFSM(failoverRetry, len(w.agws), w.Sim.Rand())
	base := w.serving
	w.openStorm()
	var attempt func()
	attempt = func() {
		if seq != w.attachSeq || w.runErr != nil {
			return
		}
		ti := (base + fsm.Candidate()) % len(w.agws)
		w.res.AttachAttempts++
		err := w.tryAttach(ti)
		if err == nil {
			w.serving = ti
			w.res.Attaches++
			w.res.AttachRetries += fsm.Attempts()
			w.res.Fallbacks += fsm.Fallbacks()
			root, open := w.stormRoot, w.stormOpen
			w.closeStorm("ok", map[string]string{
				"telco":    w.telcos[ti].IDT,
				"attempts": strconv.Itoa(fsm.Attempts() + 1),
			})
			if open {
				w.tracePhases(root, w.Sim.Now())
			}
			w.resolve(w.attachWatch, w.Sim.Now())
			w.Sim.After(attachLatency, func() {
				if seq == w.attachSeq {
					w.Conn.AddrAvailable(newIP)
				}
			})
			return
		}
		delay, giveUp := fsm.Fail(err)
		if giveUp {
			// Budget exhausted: the UE stays detached until the next
			// mobility event restarts the machine.
			w.res.GiveUps++
			w.cfg.Tracer.Event("attach", "give-up", map[string]string{
				"attempts": strconv.Itoa(fsm.Attempts()),
			})
			w.closeStorm("giveup", map[string]string{
				"attempts": strconv.Itoa(fsm.Attempts()),
			})
			return
		}
		w.Sim.After(delay, attempt)
	}
	attempt()
}

func (w *foWorld) applyFrameLoss() {
	loss := w.baseLoss + w.frameLoss
	if loss > 0.95 {
		loss = 0.95
	}
	w.path.link.Loss = loss
}

// hooks binds the chaos schedule to this world.
func (w *foWorld) hooks() chaos.Hooks {
	return chaos.Hooks{
		LinkFlap: func(down bool) {
			if down {
				w.flapped = w.path.link
				w.path.link.Down = true
				return
			}
			if w.flapped != nil {
				w.flapped.Down = false
				w.flapped = nil
			}
			w.path.link.Down = false
		},
		LinkPause: w.path.pause,
		BrokerCrash: func() {
			// The process dies with its in-memory state; only the last
			// snapshot survives.
			if w.Broker != nil {
				w.res.Shed += w.Broker.ShedCount()
			}
			w.Broker = nil
			w.cfg.Tracer.Event("broker", "crash", nil)
		},
		BrokerRestart: func() {
			nb, err := broker.Restart(w.Config, w.lastSnap, failoverShedFor)
			if err != nil {
				if w.runErr == nil {
					w.runErr = err
				}
				return
			}
			w.Broker = nb
			w.res.BrokerRestores++
			w.cfg.Tracer.Event("broker", "restore", map[string]string{
				"shed_for": failoverShedFor.String(),
			})
			w.Sim.After(failoverShedFor, nb.Resume)
		},
		TelcoCrash: func() {
			w.crashed = w.serving
			w.telcoDown[w.crashed] = true
			// The serving radio goes with it: force a detach and let the
			// retry machine fall back to the surviving bTelco.
			w.handover()
		},
		TelcoRestart: func() {
			w.telcoDown[w.crashed] = false
		},
		// The simulator carries abstract packets, not byte frames, so
		// frame corruption/truncation maps to extra loss on the radio
		// link (a corrupted frame fails its checksum and is dropped);
		// byte-exact corruption runs against real sockets via
		// chaos.FaultyConn in the wire tests.
		FrameFault: func(corruptRate, truncRate float64) {
			w.frameLoss = corruptRate + truncRate
			w.applyFrameLoss()
		},
	}
}

// resolve marks every armed watcher in list recovered as of now.
func (w *foWorld) resolve(list []*foWatcher, now time.Duration) {
	for _, watch := range list {
		if !watch.resolved && now >= watch.ready {
			watch.resolved = true
			watch.outcome.Recovered = true
			watch.outcome.Recovery = now - watch.outcome.At
			w.traceRecovered(watch)
		}
	}
}

// traceRecovered emits the recovery instant for a resolved fault. Together
// with the fault-onset instant (same "i" arg) it makes outage-to-recovery
// derivable from the trace alone: recovery = recovered.ts - fault.ts.
func (w *foWorld) traceRecovered(watch *foWatcher) {
	w.cfg.Tracer.Event("chaos", "recovered", map[string]string{
		"i":    strconv.Itoa(watch.idx),
		"kind": watch.outcome.Kind.String(),
	})
}

// runFailoverOnce executes one run (baseline when the schedule is empty)
// and returns the goodput series. Outcomes accumulate into res.
func runFailoverOnce(cfg FailoverConfig, sched chaos.Schedule, res *FailoverResult) (apps.IperfResult, error) {
	w, err := newFoWorld(cfg, res)
	if err != nil {
		return apps.IperfResult{}, err
	}

	// Arm the fault schedule and its recovery watchers. Attach-path
	// faults additionally force a mobility event 1 s into the window (or
	// halfway through short windows), so every outage provably contains
	// an attach storm whatever the route schedule does. Outcomes live in
	// a fixed-size slice so the watchers' element pointers stay valid.
	outcomes := make([]FaultOutcome, len(sched.Faults))
	for i := range sched.Faults {
		f := sched.Faults[i]
		outcomes[i] = FaultOutcome{Kind: f.Kind, At: f.At, Dur: f.Dur}
		cfg.Tracer.EventAt(f.At, "chaos", "fault", map[string]string{
			"i":    strconv.Itoa(i),
			"kind": f.Kind.String(),
			"dur":  f.Dur.String(),
		})
		watch := &foWatcher{outcome: &outcomes[i], idx: i}
		switch f.Kind {
		case chaos.KindBroker, chaos.KindCrash:
			watch.ready = f.At
			w.attachWatch = append(w.attachWatch, watch)
			force := f.At + time.Second
			if f.Dur < 2*time.Second {
				force = f.At + f.Dur/2
			}
			if f.Kind == chaos.KindBroker { // crash faults force their own handover
				w.Sim.At(force, w.handover)
			}
		default:
			watch.ready = f.At + f.Dur
			w.dataWatch = append(w.dataWatch, watch)
		}
	}
	sched.Replay(w.Sim, w.hooks())

	// Goodput measurement; chain onto the iperf delivery tap to feed the
	// data-plane recovery watchers.
	ip := apps.NewIperf(w.Sim, w.Conn, failoverBin)
	prev := w.Conn.OnDeliver
	w.Conn.OnDeliver = func(n int) {
		prev(n)
		if n > 0 {
			now := w.Sim.Now()
			w.resolve(w.dataWatch, now)
			w.resolveGoodput(now)
		}
	}
	result := ip.Run(cfg.Duration)
	// A storm still in flight at the horizon closes as "open" so its trace
	// has a root and the timeline shows the unfinished session.
	w.closeStorm("open", nil)
	res.Outcomes = append(res.Outcomes, outcomes...)
	if w.runErr != nil {
		return result, w.runErr
	}
	for _, watch := range append(w.dataWatch, w.attachWatch...) {
		if !watch.resolved {
			res.Unrecovered++
		}
	}
	return result, nil
}

// windowAvg averages series bins overlapping [from, to).
func windowAvg(series []float64, bin, from, to time.Duration) float64 {
	if bin <= 0 || len(series) == 0 {
		return 0
	}
	lo := int(from / bin)
	hi := int((to + bin - 1) / bin)
	if lo < 0 {
		lo = 0
	}
	if hi > len(series) {
		hi = len(series)
	}
	if hi <= lo {
		return 0
	}
	var sum float64
	for _, v := range series[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// RunFailover runs the experiment: a fault-free baseline and a faulted run
// share (seed, config); per-fault dips compare the two over each fault's
// window.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	cfg = cfg.Defaults()
	res := FailoverResult{Config: cfg, Schedule: cfg.Spec.Compile(cfg.Seed, cfg.Duration)}

	var baseRes FailoverResult // throwaway counters for the baseline run
	baseRes.Config = cfg
	baseCfg := cfg
	baseCfg.Tracer = nil // only the faulted run is traced
	baseline, err := runFailoverOnce(baseCfg, chaos.Schedule{Seed: cfg.Seed, Horizon: cfg.Duration}, &baseRes)
	if err != nil {
		return res, fmt.Errorf("testbed: failover baseline: %w", err)
	}
	res.BaselineBps = baseline.AvgBps

	faulted, err := runFailoverOnce(cfg, res.Schedule, &res)
	if err != nil {
		return res, fmt.Errorf("testbed: failover faulted run: %w", err)
	}
	res.FaultedBps = faulted.AvgBps

	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		from, to := o.At, o.At+o.Dur+2*time.Second
		o.BaselineBps = windowAvg(baseline.Series, failoverBin, from, to)
		o.FaultedBps = windowAvg(faulted.Series, failoverBin, from, to)
		if o.BaselineBps > 0 {
			o.DipPct = 100 * (1 - o.FaultedBps/o.BaselineBps)
			if o.DipPct < 0 {
				o.DipPct = 0
			}
		}
	}
	return res, nil
}

// Render produces the deterministic human-readable summary: every value is
// derived from virtual time and seeded randomness, so two runs with the
// same (seed, spec, config) are byte-identical — the property the replay
// test asserts.
func (r FailoverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "failover seed=%d dur=%v route=%s night=false spec=%q\n",
		r.Config.Seed, r.Config.Duration, failoverRoute.Name, r.Config.Spec.String())
	b.WriteString(r.Schedule.String())
	fmt.Fprintf(&b, "baseline=%.3f Mbps faulted=%.3f Mbps\n", r.BaselineBps/1e6, r.FaultedBps/1e6)
	for _, o := range r.Outcomes {
		rec := "UNRECOVERED"
		if o.Recovered {
			rec = fmt.Sprintf("recovery=%v", o.Recovery)
		}
		fmt.Fprintf(&b, "fault %s at=%v dur=%v %s dip=%.1f%% (base=%.3f faulted=%.3f Mbps)\n",
			o.Kind, o.At, o.Dur, rec, o.DipPct, o.BaselineBps/1e6, o.FaultedBps/1e6)
	}
	fmt.Fprintf(&b, "attaches=%d attempts=%d retries=%d fallbacks=%d giveups=%d handovers=%d\n",
		r.Attaches, r.AttachAttempts, r.AttachRetries, r.Fallbacks, r.GiveUps, r.Handovers)
	fmt.Fprintf(&b, "broker: snapshots=%d restores=%d shed=%d\n", r.Snapshots, r.BrokerRestores, r.Shed)
	fmt.Fprintf(&b, "unrecovered=%d\n", r.Unrecovered)
	return b.String()
}
