package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/nas"
	"cellbricks/internal/netem"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// groupedWorld is the sharded world the attach storm and the Byzantine
// soak share (DESIGN.md §2.6, which also states the determinism recipe):
// G fault-isolated groups of C bTelco cells and U subscribers, group g
// entirely on shard g mod K, and the cast's broker behind an endpoint
// on shard 0. Only control traffic crosses shards: closures shipped as
// packet payloads between the broker endpoint and one gateway endpoint per
// group, so all broker state is touched only by shard-0 handlers, in
// canonical packet-arrival order, whatever the shard count.
type groupedWorld struct {
	*core.Cast
	world    *netem.World
	sim0     *netem.Sim
	prefix   string
	tagBase  byte
	broker   string // broker endpoint name
	gateways []mailboxGateway

	runErr error
}

type mailboxGateway struct {
	sim  *netem.Sim
	name string
}

// newGroupedWorld stages the world and the cast. Every name derives
// from prefix (prefix-broker, prefix-gw-G, prefix-ca, prefix-telco-G-C) and
// every key seed from tagBase (+1 CA, +2 broker, +10 bTelcos, +20
// subscribers), so two worlds never share an identity.
func newGroupedWorld(prefix string, tagBase byte, seed int64, shards int, tune func(*broker.Config)) (groupedWorld, error) {
	world := netem.NewWorld(seed, shards)
	w := groupedWorld{world: world, sim0: world.Shard(0), prefix: prefix, tagBase: tagBase, broker: prefix + "-broker"}
	var err error
	w.Cast, err = core.New(prefix+"-ca", entitySeed(tagBase+1, 0), w.broker, entitySeed(tagBase+2, 0), time.Unix(1_760_000_000, 0), tune)
	return w, err
}

// beginAttach is the outbound half of the in-process SAP handshake every
// world drives: the UE's request for telco and the bTelco's forward of it.
func beginAttach(st *sap.UEState, telco *sap.TelcoState) (*sap.PendingAttach, *sap.AuthReqT, error) {
	reqU, pending, err := st.NewAttachRequest(telco.IDT)
	if err != nil {
		return nil, nil, err
	}
	reqT, err := telco.ForwardRequest(reqU)
	return pending, reqT, err
}

// errUERejected marks the UE refusing a response its own bTelco accepted.
// Honest worlds never produce it, so the sharded worlds abort the run on it
// instead of retrying the attach.
var errUERejected = errors.New("testbed: UE rejected the broker's response")

// finishAttach is the inbound half: c's broker's response through the
// bTelco to the UE. It returns the bTelco's grant and the UE's copy of the
// shared secret. A bTelco-side error (a denial, a response failing its
// checks) comes back as is, since the retry machines classify it.
func finishAttach(c *core.Cast, st *sap.UEState, telco *sap.TelcoState, pending *sap.PendingAttach, resp *sap.AuthResp) (*sap.Grant, nas.MasterKey, error) {
	grant, respU, err := telco.HandleResponse(c.BrokerPub, resp)
	if err != nil {
		return nil, nas.MasterKey{}, err
	}
	ss, _, err := st.HandleResponse(pending, respU)
	if err != nil {
		return nil, ss, fmt.Errorf("%w: %w", errUERejected, err)
	}
	return grant, ss, nil
}

// attach runs the whole handshake synchronously against c's broker. The
// returned sealer is the attach's exchange, for the session's UE reports.
func attach(c *core.Cast, st *sap.UEState, telco *sap.TelcoState) (*sap.Grant, *pki.Sealer, *sap.AuthResp, error) {
	pending, reqT, err := beginAttach(st, telco)
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := c.Broker.HandleAuthRequest(reqT)
	if err != nil {
		return nil, nil, nil, err
	}
	grant, _, err := finishAttach(c, st, telco, pending, resp)
	return grant, pending.Sealer, resp, err
}

// telcoReport seals the bTelco's half of a billing cycle for c's broker.
func telcoReport(c *core.Cast, telco *sap.TelcoState, uref string, seq uint32, rel time.Duration, dlBytes uint64) (*billing.SealedReport, error) {
	return telco.SealReport(c.BrokerPub, &billing.Report{
		SessionRef: uref, Reporter: billing.ReporterTelco,
		Seq: seq, Rel: rel, DLBytes: dlBytes,
	})
}

// shard0TickPhase is the sub-millisecond phase of a world's periodic tick
// on shard 0 (the storm's batch flush, the soak's SLO engine). UE lattice
// phases are whole microseconds (<= 999 µs) and gateway delays add g*1009
// ns per hop, so no packet arrival lands on a half-microsecond instant for
// any plausible group count — the tick never ties with a handler.
const shard0TickPhase = 999500 * time.Nanosecond

// cellCore is what every grouped world knows about a bTelco cell.
type cellCore struct {
	idx    int // index within the group
	global int // fleet-wide index
	telco  *sap.TelcoState
	// sessions lists every session the cell ever served, in adoption
	// order: the canonical settlement order.
	sessions []*sessionCore
}

// sessionCore is one attachment's billing state, shared by the UE meter's
// tap and the bTelco's per-session counter.
type sessionCore struct {
	ci    int // serving cell's index within the group
	uref  string
	start time.Duration
	dl    uint64 // honest delivered bytes
	seq   uint32 // report cycles so far
}

// ueCore is the subscriber state and attach lifecycle the grouped worlds
// share; stormUE and byzUE embed it and add what differs.
type ueCore struct {
	sim    *netem.Sim // the group's shard
	g      int        // group index: whose gateway its control packets ride
	idx    int        // index within the group
	global int        // fleet-wide index: phase, rng and key seed derive from it
	phase  time.Duration
	rng    *rand.Rand

	st    *sap.UEState
	meter *ue.BasebandMeter

	// The attach machine. attachSeq numbers the attach storms; the
	// Byzantine soak ignores an in-flight attempt of an older one on
	// arrival (the storm never starts one over another).
	attachSeq  int
	fsm        *ue.AttachFSM
	prefer     int
	stormStart time.Duration
	cur        *sessionCore // live session, nil while detached

	// Shard-local tallies, merged after the run.
	attempts, attaches, retries, giveups int
	attachedSince, attachedDur           time.Duration
}

// gridGroup is one laid-out group: its shard and its entities' cores.
type gridGroup struct {
	sim   *netem.Sim
	cells []cellCore
	ues   []ueCore
}

// layout places the broker and builds G groups of C cells and U
// subscribers in canonical order — per group: gateway, cells, subscribers
// — which fixes certificate issue order, user registration order and every
// entity's seeds. A UE's lattice phase is (global+1) µs, so the fleet must
// fit below the millisecond.
func (w *groupedWorld) layout(seed int64, G, C, U int) ([]gridGroup, error) {
	if G*U+1 >= 1000 {
		return nil, fmt.Errorf("testbed: %s world supports at most 999 UEs (lattice phases), got %d", w.prefix, G*U)
	}
	w.world.Place(w.broker, 0)
	w.world.Register(w.broker, runCtrlMsg)
	groups := make([]gridGroup, G)
	for g := range groups {
		grp := &groups[g]
		grp.sim = w.addGateway(g % w.world.Shards())
		grp.cells, grp.ues = make([]cellCore, 0, C), make([]ueCore, 0, U)
		for c := 0; c < C; c++ {
			global := g*C + c
			telco, err := w.NewTelco(fmt.Sprintf("%s-telco-%d-%d", w.prefix, g, c), entitySeed(w.tagBase+10, global), 1.0)
			if err != nil {
				return nil, err
			}
			grp.cells = append(grp.cells, cellCore{idx: c, global: global, telco: telco})
		}
		for j := 0; j < U; j++ {
			global := g*U + j
			st, meter, err := w.NewSubscriber(entitySeed(w.tagBase+20, global))
			if err != nil {
				return nil, err
			}
			grp.ues = append(grp.ues, ueCore{
				sim: grp.sim, g: g, idx: j, global: global,
				phase: time.Duration(global+1) * time.Microsecond,
				rng:   rand.New(rand.NewSource(seed + 5000 + int64(global))),
				st:    st, meter: meter,
			})
		}
	}
	return groups, nil
}

// after schedules fn on this UE's private time lattice, so its cross-shard
// sends can never tie with another entity's.
func (u *ueCore) after(d time.Duration, fn func()) {
	u.sim.At(latticeAt(u.sim.Now()+d, u.phase), fn)
}

// startStorm opens a new attach storm preferring group cell prefer: a fresh
// retry machine over the group's cells under a new sequence number.
func (u *ueCore) startStorm(pol ue.RetryPolicy, cells, prefer int) {
	u.attachSeq++
	u.prefer, u.stormStart = prefer, u.sim.Now()
	u.fsm = ue.NewAttachFSM(pol, cells, u.rng)
}

// backoff is the shared half of a failed attempt of the current storm. An
// exhausted retry budget reports retry false and counts a give-up;
// otherwise delay is the retry machine's backoff before the next attempt.
func (u *ueCore) backoff(err error) (delay time.Duration, retry bool) {
	delay, giveUp := u.fsm.Fail(err)
	if giveUp {
		u.giveups++
		return 0, false
	}
	u.retries++
	return delay, true
}

// adopt makes s the UE's live session on cell under the broker's reference
// uref: attached-time accounting starts, the baseband meter rebinds to uref
// and the attach's exchange, and tick — the world's report cycle for s —
// first fires one period later.
func (u *ueCore) adopt(cell *cellCore, s *sessionCore, uref string, sealer *pki.Sealer, every time.Duration, tick func()) {
	now := u.sim.Now()
	*s = sessionCore{ci: cell.idx, uref: uref, start: now}
	cell.sessions = append(cell.sessions, s)
	u.cur, u.attachedSince = s, now
	u.attaches++
	u.meter.StartSession()
	u.meter.BindSession(uref, sealer)
	u.after(every, tick)
}

// detach ends the live session, if any. The session record stays with its
// cell for settlement.
func (u *ueCore) detach() {
	if u.cur != nil {
		u.cur = nil
		u.attachedDur += u.sim.Now() - u.attachedSince
	}
}

// attachedFrac is the fraction of the horizon the UE held an attachment.
func (u *ueCore) attachedFrac(horizon time.Duration) float64 {
	dur := u.attachedDur
	if u.cur != nil {
		dur += horizon - u.attachedSince
	}
	return float64(dur) / float64(horizon)
}

// reportPair seals session s's next aligned billing pair: the UE's baseband
// report and its bTelco's claim of claimed downlink bytes, both at the same
// offset into the session. Both ride one control packet, so the broker
// always ingests UE-then-telco per cycle.
func (w *groupedWorld) reportPair(u *ueCore, s *sessionCore, telco *sap.TelcoState, claimed uint64) (ueEnv, tEnv *billing.SealedReport, err error) {
	rel := u.sim.Now() - s.start
	if ueEnv, err = u.meter.Report(rel); err != nil {
		return nil, nil, err
	}
	s.seq++
	tEnv, err = telcoReport(w.Cast, telco, s.uref, s.seq, rel, claimed)
	return ueEnv, tEnv, err
}

// ledger accumulates the billing half of a grouped world's result.
type ledger struct {
	sessions  int
	trueBytes uint64
	verified  uint64
	paid      float64
}

// settle adds session s to the ledger and returns its settlement; ok is
// false for a session that has none.
func (l *ledger) settle(brk *broker.Brokerd, s *sessionCore) (st billing.Settlement, ok bool) {
	l.sessions++
	l.trueBytes += s.dl
	if s.seq == 0 {
		return st, false // died before its first report cycle
	}
	st, err := brk.SettleSession(s.uref)
	if err != nil {
		return st, false
	}
	l.verified += st.VerifiedBytes
	l.paid += st.Amount
	return st, true
}

// gridDefaults fills the topology knobs the grouped worlds' configs share.
func gridDefaults(groups, cells, ues, shards *int, defUEs int) {
	if *groups <= 0 {
		*groups = 4
	}
	if *cells <= 0 {
		*cells = 2
	}
	if *ues <= 0 {
		*ues = defUEs
	}
	if *shards < 1 {
		*shards = 1
	}
}

// groupedRetry is the grouped worlds' UE attach machine policy: the given
// attempt budget, 2 s maximum backoff, 20% jitter.
func groupedRetry(attempts int) ue.RetryPolicy {
	return ue.RetryPolicy{MaxAttempts: attempts, MaxBackoff: 2 * time.Second, JitterFrac: 0.2}.WithDefaults()
}
