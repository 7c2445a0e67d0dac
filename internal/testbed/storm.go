package testbed

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/broker"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// This file is the attach storm (EXPERIMENTS.md "Attach storm"): an
// open-loop, seeded Poisson arrival process — a ramping rate with a
// flash-crowd spike — against one broker defended by admission control: a
// token bucket plus a bound on the backlog of a queue (broker.Batcher) that
// is drained every Window of virtual time, one broker transaction per item
// in arrival order. Every attach is the SAP handshake — on a ticket after a
// UE's first grant (DESIGN.md §2.8) — and which kind of request a UE sends
// never moves a send, so the rendered result is byte-identical across any
// shard count; only the wall-clock (Metrics) numbers differ.
//
// The world is the grouped sharded world of grouped.go, and determinism
// follows its recipe (DESIGN.md §2.6). Three storm-specific rules are
// layered on top:
//
//   - One attach at a time per UE: an arrival that finds its UE mid-attach
//     is absorbed, so no attempt is ever superseded.
//   - The UE takes its request off its ue.AttachShelf at attempt time and
//     shelves it again when admission sheds the attempt; the retry machine
//     keeps the cell after a shed, so the next attempt resends the same
//     bytes. A try at another cell (after a give-up) first abandons a
//     ticketed one and rides its ticket (AttachShelf.Take) instead of
//     paying first contact.
//   - The flush tick runs on shard 0 at shard0TickPhase, pairing
//     Batcher.Flush outcomes with their completion callbacks in enqueue
//     order.

// StormConfig parameterizes one attach-storm run.
type StormConfig struct {
	Seed     int64
	Duration time.Duration // emulated horizon (default 30 s)

	// Topology: like the soak, UEs and cells live in fault-isolated
	// groups, group g on shard g mod K (defaults 4 / 2 / 25 = 100 UEs).
	Groups        int
	CellsPerGroup int
	UEsPerGroup   int

	// Arrival process, fleet-wide attaches per second: BaseRate at t=0
	// (default 40) ramping linearly to twice that at the horizon,
	// multiplied by Spike inside [SpikeAt, SpikeAt+SpikeDur) (defaults
	// x8 at Duration/2 for Duration/6).
	BaseRate float64
	Spike    float64
	SpikeAt  time.Duration
	SpikeDur time.Duration

	// Window is the broker queue's flush cadence (default 10 ms);
	// ReportEvery the billing cadence per session (default 2 s).
	Window      time.Duration
	ReportEvery time.Duration

	// Admission tunes the shedder; the zero value defaults to
	// rate 2xBaseRate, burst BaseRate, max queue 48, hint 500 ms.
	Admission broker.AdmissionConfig

	// Serial has no effect. It turned off the HMAC resume fast path, which
	// is gone; benchmark/emu.go still sets it, so it stays until ROADMAP
	// item 1a re-fixtures the benchmark.
	Serial bool

	// Shards is the netem.World shard count (default 1); output is
	// byte-identical for any value.
	Shards int
}

// Defaults fills zero fields.
func (c StormConfig) Defaults() StormConfig {
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	gridDefaults(&c.Groups, &c.CellsPerGroup, &c.UEsPerGroup, &c.Shards, 25)
	if c.BaseRate == 0 {
		c.BaseRate = 40
	}
	if c.Spike == 0 {
		c.Spike = 8
	}
	if c.SpikeAt == 0 {
		c.SpikeAt = c.Duration / 2
	}
	if c.SpikeDur == 0 {
		c.SpikeDur = c.Duration / 6
	}
	if c.Window == 0 {
		c.Window = 10 * time.Millisecond
	}
	if c.ReportEvery == 0 {
		c.ReportEvery = 2 * time.Second
	}
	if c.Admission == (broker.AdmissionConfig{}) {
		c.Admission = broker.AdmissionConfig{
			Rate:       2 * c.BaseRate,
			Burst:      c.BaseRate,
			MaxQueue:   48,
			RetryAfter: 500 * time.Millisecond,
		}
	}
	return c
}

// stormRetry is the storm UEs' attach machine policy.
var stormRetry = groupedRetry(6)

// peakRate is the arrival intensity the ramp reaches at the horizon.
func (c StormConfig) peakRate() float64 { return 2 * c.BaseRate }

// inSpike reports whether instant t falls inside the flash-crowd window.
func (c StormConfig) inSpike(t time.Duration) bool {
	return t >= c.SpikeAt && t < c.SpikeAt+c.SpikeDur
}

// rateAt is the fleet-wide arrival intensity at instant t: BaseRate at 0,
// rising linearly to peakRate at the horizon.
func (c StormConfig) rateAt(t time.Duration) float64 {
	r := c.BaseRate + c.BaseRate*float64(t)/float64(c.Duration)
	if c.inSpike(t) {
		r *= c.Spike
	}
	return r
}

// StormResult is the outcome of one storm run. Every field above
// Metrics derives from virtual time and seeded randomness — Render
// uses only those. Metrics carries the wall-clock performance numbers
// (which legitimately differ run to run).
type StormResult struct {
	Config StormConfig

	Arrivals int // storm arrivals fired
	Absorbed int // arrivals that found their UE mid-attach
	Attempts int // attach attempts (first tries and retries)
	Attaches int // attach grants adopted by their UE
	Grants   int // broker grants
	Denied   int // broker denials
	Sheds    int // attempts refused by admission control
	Retries  int
	GiveUps  int

	// Not rendered: Retransmits counts attempts that resent a shed request
	// (attempts minus requests built), Signed the requests built with a
	// signature (first contact), Attempters the UEs that attempted at all.
	Retransmits, Signed, Attempters int

	SpikeArrivals int
	SpikeGrants   int
	SpikeSheds    int

	Admitted   uint64 // admission-control grants
	RateSheds  uint64
	QueueSheds uint64

	LatMS []float64 // attach latency samples, storm start to adoption

	Sessions      int
	Reports       int
	Mismatches    int
	PaidUnits     float64
	VerifiedBytes uint64
	Availability  float64

	// Wall-clock segments (pre-spike, spike, post-spike) and derived
	// throughput — Metrics-only, never rendered.
	WallPre, WallSpike, WallPost time.Duration
	BatchFlushes, BatchItems     uint64
}

type stormUE struct {
	ueCore
	grp *stormGroup
	// attaching holds from an arrival's first attempt to adoption or
	// give-up: an attempt is in flight or its retry is pending.
	attaching bool
	// shelf holds, per cell, the request admission shed; fwd the cell's
	// signed forward of it. Taken at attempt time and restored together.
	shelf  ue.AttachShelf
	fwd    []*sap.AuthReqT
	signed int // requests built with a signature
}

type stormGroup struct {
	w     *stormWorld
	cells []*cellCore
	ues   []*stormUE

	// Shard-local tallies, merged after the run.
	arrivals, spikeArrivals, absorbed int
	latMS                             []float64
}

type stormWorld struct {
	groupedWorld
	cfg    StormConfig
	groups []*stormGroup
	bat    *broker.Batcher

	// Shard-0 state: written only by broker-endpoint handlers and the
	// flush tick. pending pairs, in enqueue order, with the outcomes the
	// next Flush returns: what becomes of each, or nil for a report,
	// which is tallied where the flush ran.
	pending     []func(broker.BatchOutcome)
	grants      int
	spikeGrants int
	denied      int
	sheds       int
	spikeSheds  int
	reports     int
	mismatches  int
}

func newStormWorld(cfg StormConfig) (*stormWorld, error) {
	gw, err := newGroupedWorld("storm", 200, cfg.Seed, cfg.Shards, nil)
	if err != nil {
		return nil, err
	}
	w := &stormWorld{groupedWorld: gw, cfg: cfg}
	// The shedder refills on virtual time, so shedding is part of the
	// deterministic output.
	w.Broker.EnableAdmission(cfg.Admission, w.sim0.Now)
	w.bat = w.Broker.NewBatcher()

	C, nUE := cfg.CellsPerGroup, cfg.Groups*cfg.UEsPerGroup
	grid, err := w.layout(cfg.Seed, cfg.Groups, C, cfg.UEsPerGroup)
	if err != nil {
		return nil, err
	}
	for _, gg := range grid {
		grp := &stormGroup{w: w}
		w.groups = append(w.groups, grp)
		for i := range gg.cells {
			grp.cells = append(grp.cells, &gg.cells[i])
		}
		for _, uc := range gg.ues {
			grp.ues = append(grp.ues, &stormUE{ueCore: uc, grp: grp, fwd: make([]*sap.AuthReqT, C)})
		}
	}

	// Pre-draw every UE's arrival schedule by thinning a homogeneous
	// Poisson process at the envelope rate: accepted points follow the
	// ramp-and-spike intensity exactly, and because the draws happen
	// here — before the clock starts, from the UE's private rng — the
	// schedule is identical for any shard count.
	spikeMul := cfg.Spike
	if spikeMul < 1 {
		spikeMul = 1
	}
	lambdaMax := cfg.peakRate() * spikeMul / float64(nUE)
	for _, grp := range w.groups {
		for _, u := range grp.ues {
			t := time.Duration(0)
			for {
				t += time.Duration(u.rng.ExpFloat64() / lambdaMax * float64(time.Second))
				if t >= cfg.Duration {
					break
				}
				if u.rng.Float64()*lambdaMax > cfg.rateAt(t)/float64(nUE) {
					continue // thinned: envelope point outside the intensity
				}
				at := latticeAt(t, u.phase)
				if at >= cfg.Duration {
					break
				}
				u.sim.At(at, u.arrive)
			}
		}
	}

	// Flush tick: shard 0, every Window, at a phase nothing else can
	// occupy. Outcomes pair with pending callbacks in enqueue order.
	var flushTick func()
	flushTick = func() {
		outs := w.bat.Flush()
		pend := w.pending
		w.pending = nil
		if len(outs) != len(pend) {
			w.fail(fmt.Errorf("testbed: storm flush returned %d outcomes for %d callbacks", len(outs), len(pend)))
			return
		}
		for i, done := range pend {
			if done == nil {
				w.reportOutcome(outs[i])
				continue
			}
			done(outs[i])
		}
		if next := latticeAt(w.sim0.Now()+cfg.Window, shard0TickPhase); next < cfg.Duration {
			w.sim0.At(next, flushTick)
		}
	}
	w.sim0.At(latticeAt(0, shard0TickPhase), flushTick)
	return w, nil
}

// arrive is one storm arrival. A UE mid-attach absorbs it; any other
// (re)starts its attach — detaching first if attached, as the paper's
// mobility story has it — preferring the next cell in its rotation.
func (u *stormUE) arrive() {
	w := u.grp.w
	if w.runErr != nil {
		return
	}
	u.grp.arrivals++
	if w.cfg.inSpike(u.sim.Now()) {
		u.grp.spikeArrivals++
	}
	if u.attaching {
		u.grp.absorbed++
		return
	}
	u.detach()
	C := len(u.grp.cells)
	u.startStorm(stormRetry, C, (u.attachSeq+1)%C)
	u.attaching = true
	u.attempt()
}

// attempt runs one attach attempt: the request the UE's shelf hands out
// for the chosen cell (a resend of the one admission shed there, or a new
// one), charged against admission with the queue's backlog and enqueued
// for the next flush. If admission sheds it the broker never saw it, so it
// goes back on the shelf, with the cell's forward, before the UE backs off.
// The admission check and enqueue run on shard 0; the rest on the UE's.
func (u *stormUE) attempt() {
	w, g := u.grp.w, u.g
	if w.runErr != nil {
		return
	}
	ci := (u.prefer + u.fsm.Candidate()) % len(u.grp.cells)
	cell := u.grp.cells[ci]
	u.attempts++

	pending, resent, err := u.shelf.Take(u.st, cell.telco.IDT)
	if err != nil {
		w.fail(err)
		return
	}
	if !resent && len(pending.Req.Sig) != 0 {
		u.signed++
	}
	reqT := u.fwd[ci]
	u.fwd[ci] = nil
	if !resent || reqT == nil {
		if reqT, err = cell.telco.ForwardRequest(pending.Req); err != nil {
			w.fail(err)
			return
		}
	}
	w.toBroker(g, func() {
		if err := w.Broker.AdmitAttach(w.bat.Depth()); err != nil {
			w.tallyShed()
			w.toGroup(g, func() {
				u.shelf.Settle(pending, err)
				u.fwd[ci] = reqT
				u.failAttach(err)
			})
			return
		}
		w.bat.EnqueueAuth(reqT)
		w.pending = append(w.pending, func(out broker.BatchOutcome) {
			w.tallyAttach(out)
			w.toGroup(g, func() { u.finish(cell, pending, out) })
		})
	})
}

// tallyShed and tallyAttach run on shard 0 and classify against the
// broker clock — flush and admission instants do not depend on which kind
// of request an attempt sent, so these rendered counters do not either.
func (w *stormWorld) tallyShed() {
	w.sheds++
	if w.cfg.inSpike(w.sim0.Now()) {
		w.spikeSheds++
	}
}

func (w *stormWorld) tallyAttach(out broker.BatchOutcome) {
	switch {
	case out.Auth == nil:
	case out.Auth.Granted:
		w.grants++
		if w.cfg.inSpike(w.sim0.Now()) {
			w.spikeGrants++
		}
	default:
		w.denied++
	}
}

// failAttach schedules the retry, or on a give-up leaves the UE to wait
// for its next storm arrival.
func (u *stormUE) failAttach(err error) {
	delay, retry := u.backoff(err)
	if retry {
		u.after(delay, u.attempt)
	}
	u.attaching = retry
}

// finish completes an attempt the broker decided.
func (u *stormUE) finish(cell *cellCore, pending *sap.PendingAttach, out broker.BatchOutcome) {
	w := u.grp.w
	if out.Err != nil {
		u.failAttach(out.Err)
		return
	}
	grant, _, err := finishAttach(w.Cast, u.st, cell.telco, pending, out.Auth)
	if errors.Is(err, errUERejected) {
		w.fail(err)
		return
	}
	if err != nil {
		u.failAttach(err)
		return
	}
	u.attachTo(cell, grant.URef, pending.Sealer)
}

// attachTo adopts a granted session, ending the attach: latency sample,
// then the shared adoption with this world's report chain.
func (u *stormUE) attachTo(cell *cellCore, uref string, sealer *pki.Sealer) {
	u.attaching = false
	u.grp.latMS = append(u.grp.latMS, float64(u.sim.Now()-u.stormStart)/float64(time.Millisecond))
	s := new(sessionCore)
	u.adopt(cell, s, uref, sealer, u.grp.w.cfg.ReportEvery, func() { u.reportTick(s) })
}

// reportTick emits the aligned billing pair for session s: synthetic
// but deterministic usage counted into both the UE baseband meter and
// the bTelco's per-session counter (honest traffic — the verifier must
// stay silent), ingested UE-then-telco.
func (u *stormUE) reportTick(s *sessionCore) {
	w := u.grp.w
	if u.cur != s || w.runErr != nil {
		return
	}
	n := 32<<10 + (u.global%17)*997
	u.meter.CountDL(n)
	s.dl += uint64(n)
	ueEnv, tEnv, err := w.reportPair(&u.ueCore, s, u.grp.cells[s.ci].telco, s.dl)
	if err != nil {
		w.fail(err)
		return
	}
	w.toBroker(u.g, func() {
		w.reports += 2
		w.bat.EnqueueReport(ueEnv)
		w.bat.EnqueueReport(tEnv)
		w.pending = append(w.pending, nil, nil)
	})
	u.after(w.cfg.ReportEvery, func() { u.reportTick(s) })
}

func (w *stormWorld) reportOutcome(out broker.BatchOutcome) {
	if out.Mismatch != nil {
		w.mismatches++
	}
	if out.Err != nil {
		w.fail(fmt.Errorf("testbed: storm report rejected: %w", out.Err))
	}
}

// collect builds the result after the world has run to the horizon.
func (w *stormWorld) collect() StormResult {
	cfg := w.cfg
	res := StormResult{
		Config: cfg,
		Grants: w.grants, SpikeGrants: w.spikeGrants, Denied: w.denied,
		Sheds: w.sheds, SpikeSheds: w.spikeSheds,
		Reports: w.reports, Mismatches: w.mismatches,
	}
	res.Admitted, res.RateSheds, res.QueueSheds = w.Broker.AdmissionStats()
	res.BatchFlushes, res.BatchItems = w.bat.Stats()
	var availSum float64
	var bill ledger
	for _, grp := range w.groups {
		res.Arrivals += grp.arrivals
		res.Absorbed += grp.absorbed
		res.SpikeArrivals += grp.spikeArrivals
		res.LatMS = append(res.LatMS, grp.latMS...)
		for _, u := range grp.ues {
			res.Attempts += u.attempts
			res.Attaches += u.attaches
			res.Retries += u.retries
			res.GiveUps += u.giveups
			res.Retransmits += u.shelf.Resent
			res.Signed += u.signed
			res.Attempters += min(u.attempts, 1)
			availSum += u.attachedFrac(cfg.Duration)
		}
		for _, cell := range grp.cells {
			for _, s := range cell.sessions {
				bill.settle(w.Broker, s)
			}
		}
	}
	res.Sessions, res.PaidUnits, res.VerifiedBytes = bill.sessions, bill.paid, bill.verified
	res.Availability = availSum / float64(len(w.groups)*cfg.UEsPerGroup)
	return res
}

// RunStorm runs the attach storm. The error reports only harness
// failures; load-shedding, retries and give-ups are the product under
// test and live in the result.
func RunStorm(cfg StormConfig) (StormResult, error) {
	cfg = cfg.Defaults()
	w, err := newStormWorld(cfg)
	if err != nil {
		return StormResult{Config: cfg}, err
	}
	// Segmented run: the wall-clock cost of each phase is what the bench
	// compares between runs. Wall time never enters Render.
	t0 := time.Now()
	w.world.RunUntil(cfg.SpikeAt)
	t1 := time.Now()
	w.world.RunUntil(cfg.SpikeAt + cfg.SpikeDur)
	t2 := time.Now()
	w.world.RunUntil(cfg.Duration)
	t3 := time.Now()
	if w.runErr != nil {
		return StormResult{Config: cfg}, fmt.Errorf("testbed: storm run: %w", w.runErr)
	}
	res := w.collect()
	res.WallPre, res.WallSpike, res.WallPost = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return res, nil
}

// Render produces the deterministic summary: identical bytes for any
// shard count — the determinism gate hashes exactly this string. Wall-clock
// numbers are deliberately excluded; so are the queue counters.
func (r StormResult) Render() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "storm seed=%d dur=%v groups=%d cells/grp=%d ues/grp=%d shards=any\n",
		c.Seed, c.Duration, c.Groups, c.CellsPerGroup, c.UEsPerGroup)
	fmt.Fprintf(&b, "rate base=%.1f/s peak=%.1f/s spike=x%.1f @%v for %v window=%v report=%v\n",
		c.BaseRate, c.peakRate(), c.Spike, c.SpikeAt, c.SpikeDur, c.Window, c.ReportEvery)
	fmt.Fprintf(&b, "admission rate=%.1f/s burst=%.1f maxqueue=%d hint=%v\n",
		c.Admission.Rate, c.Admission.Burst, c.Admission.MaxQueue, c.Admission.RetryAfter)
	fmt.Fprintf(&b, "arrivals=%d absorbed=%d attempts=%d attaches=%d grants=%d denied=%d retries=%d giveups=%d\n",
		r.Arrivals, r.Absorbed, r.Attempts, r.Attaches, r.Grants, r.Denied, r.Retries, r.GiveUps)
	fmt.Fprintf(&b, "shed total=%d rate=%d queue=%d admitted=%d\n",
		r.Sheds, r.RateSheds, r.QueueSheds, r.Admitted)
	fmt.Fprintf(&b, "spike arrivals=%d grants=%d sheds=%d\n",
		r.SpikeArrivals, r.SpikeGrants, r.SpikeSheds)
	maxLat := 0.0
	for _, v := range r.LatMS {
		if v > maxLat {
			maxLat = v
		}
	}
	fmt.Fprintf(&b, "latency_ms p50=%.3f p90=%.3f p99=%.3f max=%.3f n=%d\n",
		apps.PercentileFloats(r.LatMS, 50), apps.PercentileFloats(r.LatMS, 90),
		apps.PercentileFloats(r.LatMS, 99), maxLat, len(r.LatMS))
	fmt.Fprintf(&b, "billing sessions=%d reports=%d mismatches=%d paid=%.6f units verified=%d bytes\n",
		r.Sessions, r.Reports, r.Mismatches, r.PaidUnits, r.VerifiedBytes)
	fmt.Fprintf(&b, "availability=%.4f\n", r.Availability)
	return b.String()
}
