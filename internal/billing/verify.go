package billing

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"cellbricks/internal/qos"
)

// Mismatch records one detected accounting discrepancy: a pair of aligned
// reports whose DL usage differs by more than the loss-adjusted threshold
// of Fig. 5.
type Mismatch struct {
	SessionRef string
	Seq        uint32
	UEBytes    uint64
	TelcoBytes uint64
	Threshold  float64
	Degree     float64 // |diff| / max(UEBytes, 1) — the weighting input
}

// VerifierConfig tunes the Fig. 5 heuristic.
type VerifierConfig struct {
	// Epsilon is the fixed tolerance ratio added to the UE-reported DL
	// loss rate when computing the discrepancy threshold.
	Epsilon float64
	// Alpha is the EWMA weight for reputation updates.
	Alpha float64
	// SuspectTelcoCount is how many *distinct* bTelcos a UE must disagree
	// with before the broker places the UE (rather than the bTelcos) on
	// its suspect list.
	SuspectTelcoCount int
	// SlackBytes is the absolute discrepancy allowance on top of the
	// proportional threshold: it absorbs bytes legitimately in flight
	// between the two counters (bounded by bandwidth-delay product plus
	// the bottleneck queue) at the moment a report is cut — most visible
	// on the short final report of a session ended by a handover.
	// Zero selects one MTU (1500), the paper-tight setting.
	SlackBytes uint64
	// MaxMismatches bounds the retained mismatch incident log: a broker
	// facing a chatty adversary must not grow without bound on the
	// adversary's schedule. Older incidents are dropped (counted by
	// MismatchesDropped); reputation state is unaffected. Zero selects
	// 1024.
	MaxMismatches int
}

// DefaultVerifierConfig matches the constants used in the experiments.
func DefaultVerifierConfig() VerifierConfig {
	return VerifierConfig{Epsilon: 0.05, Alpha: 0.10, SuspectTelcoCount: 3}
}

// freshness is the newest (seq, rel) one reporter submitted for a session.
type freshness struct {
	rel  time.Duration
	seq  uint32
	seen bool
}

// maxHalves caps the unpaired reports a session holds. An honest pair is
// one cycle apart at most; a reporter that runs further ahead than this
// loses its oldest unpaired report (the body stays as evidence), not money
// it could otherwise have been paid.
const maxHalves = 8

// Grant is what the broker granted a session reference: the user, the
// bTelco it attached through, the QoS class the UE's reports are held to
// and the price per GB the session settles at.
type Grant struct {
	IDU, IDT   string
	QCI        qos.QCI
	PricePerGB float64
}

// session is everything the broker holds for one granted session reference:
// evicting a session is deleting its row.
type session struct {
	Grant
	fresh [2]freshness // by Reporter-1: the replay gate
	// halves are the reports that can still pair: Seq ascending, all from
	// the reporter that is ahead and all above the other's freshest Seq.
	halves []*Report
	// bodies are the reports IngestOpened accepted, in arrival order: what a
	// dispute is argued over (DESIGN.md §2.10).
	bodies []*Report
	// The settlement so far, folded by check: the totals (UL+DL, cumulative)
	// and Rel of the newest checked pair — the first of several with one
	// Rel — whether that pair mismatched, and whether any pair ever did.
	ueBytes, telcoBytes          uint64
	rel                          time.Duration
	paired, mismatched, disputed bool
}

// ErrReplayedReport is returned by Ingest for a stale or duplicated
// report: its sequence number or relative timestamp regresses against
// what the same reporter already submitted for the session. The envelope
// signature still verifies — replay is only detectable here.
var ErrReplayedReport = fmt.Errorf("billing: replayed or stale report")

// Verifier is the broker-side accounting pipeline: it ingests verified
// report bodies, pairs UE and bTelco reports by (session, seq), applies the
// Fig. 5 discrepancy test once per pair, and maintains each session's
// settlement and the reputation state.
type Verifier struct {
	cfg VerifierConfig

	sessions map[string]*session // by session reference, from Bind

	telcoRep   map[string]*ReputationEntry
	userMisses map[string]map[string]bool // idU -> set of bTelcos disagreed with
	suspects   map[string]bool

	// audits tracks each reporter's MAC'd reports against its checkpoints
	// (checkpoint.go); an entry appears with a reporter's first MAC'd
	// report.
	audits map[reporterID]*audit

	// mismatches is a bounded ring (capacity cfg.MaxMismatches): mmHead
	// is the index of the oldest entry once full, mmDropped counts
	// evicted incidents.
	mismatches []Mismatch
	mmHead     int
	mmDropped  uint64
}

// ReputationEntry is a bTelco's standing with the broker.
type ReputationEntry struct {
	Score      float64 // EWMA in [0,1]; 1 = spotless
	Reports    int
	Mismatches int
	Replays    int     // replayed/stale reports attributed to this bTelco
	Penalty    float64 // cumulative weighted degree
}

// NewVerifier builds a verifier.
func NewVerifier(cfg VerifierConfig) *Verifier {
	return &Verifier{
		cfg:        cfg,
		sessions:   make(map[string]*session),
		telcoRep:   make(map[string]*ReputationEntry),
		userMisses: make(map[string]map[string]bool),
		suspects:   make(map[string]bool),
		audits:     make(map[reporterID]*audit),
	}
}

// Bind records the grant of a session reference, opening its row.
func (v *Verifier) Bind(ref string, g Grant) {
	s := v.sessions[ref]
	if s == nil {
		s = &session{}
		v.sessions[ref] = s
	}
	s.Grant = g
}

// BindSession is Bind for a session with no QoS class or price.
func (v *Verifier) BindSession(ref, idU, idT string) { v.Bind(ref, Grant{IDU: idU, IDT: idT}) }

// Lookup returns a copy of the grant of a session reference, and whether
// there is one.
func (v *Verifier) Lookup(ref string) (Grant, bool) {
	if s := v.sessions[ref]; s != nil {
		return s.Grant, true
	}
	return Grant{}, false
}

// Ingest adds one verified report body. When its counterpart (same
// session, same seq, other reporter) is already present, the pair is
// checked immediately and the outcome returned; otherwise ok=true with a
// nil mismatch.
func (v *Verifier) Ingest(r *Report) (*Mismatch, error) {
	_, mm, err := v.ingest(r)
	return mm, err
}

// ingest is Ingest, also returning the session the report was filed under.
func (v *Verifier) ingest(r *Report) (*session, *Mismatch, error) {
	if r == nil {
		return nil, nil, fmt.Errorf("billing: nil report")
	}
	s := v.sessions[r.SessionRef]
	if s == nil {
		return nil, nil, fmt.Errorf("billing: report for unknown session %q", r.SessionRef)
	}
	if r.Reporter != ReporterUE && r.Reporter != ReporterTelco {
		return nil, nil, fmt.Errorf("billing: bad reporter %d", r.Reporter)
	}
	// Replay/staleness gate: a reporter's (seq, rel) must strictly
	// advance within a session. A signed old envelope sails through
	// signature checks, so freshness is this layer's job. Replayed
	// reports never reach pairing and count as misconduct for the bTelco
	// (its meter, its replay — a UE replay is handled by the suspect
	// machinery via mismatches it causes).
	mine, other := &s.fresh[r.Reporter-1], s.fresh[2-r.Reporter]
	if mine.seen && (r.Seq <= mine.seq || r.Rel < mine.rel) {
		if r.Reporter == ReporterTelco {
			v.repEntry(s.IDT).Replays++
			v.Evidence(s.IDT, ReplayEvidence, 1)
		}
		return nil, nil, fmt.Errorf("%w: session %q reporter %d seq %d rel %v (last seq %d rel %v)",
			ErrReplayedReport, r.SessionRef, r.Reporter, r.Seq, r.Rel, mine.seq, mine.rel)
	}
	*mine = freshness{rel: r.Rel, seq: r.Seq, seen: true}
	// Pairing is by (session, seq). The other side's halves below r.Seq
	// waited for a report this reporter can no longer send: they go.
	if h := s.halves; len(h) > 0 && h[0].Reporter != r.Reporter {
		i := 0
		for i < len(h) && h[i].Seq < r.Seq {
			i++
		}
		var partner *Report
		if i < len(h) && h[i].Seq == r.Seq {
			partner = h[i]
			i++
		}
		s.halves = slices.Delete(h, 0, i)
		if partner != nil {
			ue, telco := r, partner
			if r.Reporter == ReporterTelco {
				ue, telco = partner, r
			}
			return s, v.check(s, ue, telco), nil
		}
	}
	// r waits for its counterpart, if the other side can still send one.
	if !other.seen || r.Seq > other.seq {
		if len(s.halves) == maxHalves {
			s.halves = slices.Delete(s.halves, 0, 1)
		}
		s.halves = append(s.halves, r)
	}
	return s, nil, nil
}

// check applies Fig. 5 to a completed pair of session s: threshold =
// DL_U * (loss_U + epsilon); a mismatch is |DL_T - DL_U| > threshold.
// Reputation is an EWMA over pass/fail with the failure contribution
// weighted by the degree of mismatch. The verdict is also folded into the
// session's settlement, which is all Settle reads.
func (v *Verifier) check(s *session, ue, telco *Report) *Mismatch {
	rep := v.repEntry(s.IDT)
	rep.Reports++

	slack := float64(v.cfg.SlackBytes)
	if slack == 0 {
		slack = 1500 // one MTU of slack for timing skew
	}
	threshold := float64(ue.DLBytes)*(ue.QoS.DLLossRate+v.cfg.Epsilon) + slack
	diff := math.Abs(float64(telco.DLBytes) - float64(ue.DLBytes))
	mismatched := diff > threshold
	if !s.paired || ue.Rel > s.rel {
		s.paired, s.rel, s.mismatched = true, ue.Rel, mismatched
		s.ueBytes, s.telcoBytes = ue.DLBytes+ue.ULBytes, telco.DLBytes+telco.ULBytes
	}
	if !mismatched {
		rep.Score = rep.Score*(1-v.cfg.Alpha) + v.cfg.Alpha*1.0
		return nil
	}
	s.disputed = true
	degree := diff / math.Max(float64(ue.DLBytes), 1)
	m := Mismatch{
		SessionRef: ue.SessionRef,
		Seq:        ue.Seq,
		UEBytes:    ue.DLBytes,
		TelcoBytes: telco.DLBytes,
		Threshold:  threshold,
		Degree:     degree,
	}
	v.recordMismatch(m)
	rep.Mismatches++
	// A mismatch contributes a degree-weighted failure to the EWMA: small
	// overshoots hurt less than brazen inflation ("weighted by the degree
	// of mismatch").
	v.Evidence(s.IDT, MismatchEvidence, degree)

	// Track which bTelcos this user has disagreed with: a user whose
	// reports clash with many independent bTelcos is the likelier liar.
	set := v.userMisses[s.IDU]
	if set == nil {
		set = make(map[string]bool)
		v.userMisses[s.IDU] = set
	}
	set[s.IDT] = true
	if len(set) >= v.cfg.SuspectTelcoCount {
		v.suspects[s.IDU] = true
	}
	return &m
}

// repEntry returns (creating if needed) the reputation entry for idT.
func (v *Verifier) repEntry(idT string) *ReputationEntry {
	rep := v.telcoRep[idT]
	if rep == nil {
		rep = &ReputationEntry{Score: 1}
		v.telcoRep[idT] = rep
	}
	return rep
}

// recordMismatch appends to the bounded incident ring, evicting the
// oldest entry once cfg.MaxMismatches is reached.
func (v *Verifier) recordMismatch(m Mismatch) {
	max := v.cfg.MaxMismatches
	if max <= 0 {
		max = 1024
	}
	if len(v.mismatches) < max {
		v.mismatches = append(v.mismatches, m)
		return
	}
	v.mismatches[v.mmHead] = m
	v.mmHead = (v.mmHead + 1) % max
	v.mmDropped++
}

// EvidenceKind is what a piece of reputation evidence against a bTelco
// attests. Only verified evidence moves a score.
type EvidenceKind int

const (
	// MismatchEvidence is a Fig. 5 discrepancy; degree is |diff| / DL_U.
	MismatchEvidence EvidenceKind = iota
	// ReplayEvidence is a replayed or stale signed report.
	ReplayEvidence
	// WatchdogEvidence is a UE's no-goodput attestation (accept, then
	// blackhole).
	WatchdogEvidence
	// QoSEvidence is a UE-attested QoS violation: the paper's footnote-6
	// extension of reputation to QoS enforcement.
	QoSEvidence
	// SLOBreachEvidence is a windowed objective over verified evidence
	// crossing into breach; callers scale degree by the breach depth.
	SLOBreachEvidence
)

// evidenceRules weigh each kind. The EWMA weight is scale·Alpha, at most 1
// where capped. Unlike an accounting mismatch, which could be honest skew,
// replay, watchdog and breach evidence is unambiguous, so it weighs double;
// a QoS miss weighs half. clamp bounds degree to [0, 1] first; penalty adds
// degree to ReputationEntry.Penalty.
var evidenceRules = [...]struct {
	scale                  float64
	capped, clamp, penalty bool
}{
	MismatchEvidence:  {scale: 1, penalty: true},
	ReplayEvidence:    {scale: 2, capped: true, clamp: true, penalty: true},
	WatchdogEvidence:  {scale: 2, capped: true, clamp: true, penalty: true},
	QoSEvidence:       {scale: 0.5, clamp: true},
	SLOBreachEvidence: {scale: 2, capped: true, clamp: true, penalty: true},
}

// Evidence folds one piece of evidence of the given kind into idT's
// reputation: a failure of 1-min(degree, 1) into the EWMA at the kind's
// weight.
func (v *Verifier) Evidence(idT string, kind EvidenceKind, degree float64) {
	r := evidenceRules[kind]
	rep := v.repEntry(idT)
	if r.clamp {
		degree = math.Max(0, math.Min(degree, 1))
	}
	if r.penalty {
		rep.Penalty += degree
	}
	alpha := v.cfg.Alpha * r.scale
	if r.capped {
		alpha = math.Min(1, alpha)
	}
	rep.Score = rep.Score*(1-alpha) + alpha*(1.0-math.Min(degree, 1.0))
}

// TelcoScore returns a bTelco's reputation (1.0 when unknown — "innocent
// until reported").
func (v *Verifier) TelcoScore(idT string) float64 {
	if r, ok := v.telcoRep[idT]; ok {
		return r.Score
	}
	return 1.0
}

// Suspect reports whether a user is on the tampering suspect list.
func (v *Verifier) Suspect(idU string) bool { return v.suspects[idU] }

// Mismatches returns the retained mismatch incidents, oldest first. Once
// the ring has wrapped, only the newest cfg.MaxMismatches are held (see
// MismatchesDropped for the evicted count).
func (v *Verifier) Mismatches() []Mismatch {
	if v.mmDropped == 0 {
		return v.mismatches
	}
	out := make([]Mismatch, 0, len(v.mismatches))
	out = append(out, v.mismatches[v.mmHead:]...)
	out = append(out, v.mismatches[:v.mmHead]...)
	return out
}

// Settlement is a periodic payout summary for one session: the broker
// compensates the bTelco based on verified usage ("at some later time, T1
// bills B based on the usage reports"). Verified bytes use the UE report
// when the pair mismatched (conservative), the mean otherwise.
type Settlement struct {
	SessionRef    string
	IDT           string
	VerifiedBytes uint64
	Amount        float64
	Disputed      bool
	Unpaired      int // reports still waiting for their counterpart
}

// Settle prices what Ingest has concluded about a session so far, at the
// given price per GB. Reports carry *cumulative* session counters, so the
// newest checked pair determines the verified total: the mean of the two
// sides when that pair agreed, the UE-attested value (conservative) when
// it mismatched. Disputed is set when any pair mismatched. A report whose
// counterpart never came under the same Seq attests nothing.
func (v *Verifier) Settle(ref string, pricePerGB float64) Settlement {
	s := v.sessions[ref]
	if s == nil {
		return Settlement{SessionRef: ref}
	}
	total := s.ueBytes
	if !s.mismatched {
		total = (total + s.telcoBytes) / 2
	}
	return Settlement{SessionRef: ref, IDT: s.IDT, VerifiedBytes: total,
		Amount: float64(total) / 1e9 * pricePerGB, Disputed: s.disputed, Unpaired: len(s.halves)}
}

// State is the verifier's durable part: each session's grant, each bTelco's
// reputation and the suspect list. The rest of a session's row, the audits
// and the mismatch log are soft state (DESIGN.md §2.5).
type State struct {
	Grants      []SessionGrant
	Reputations []TelcoReputation
	Suspects    []string // idUs
}

// SessionGrant is one session reference's grant.
type SessionGrant struct {
	URef  string
	Grant Grant
}

// TelcoReputation is one bTelco's reputation.
type TelcoReputation struct {
	IDT   string
	Entry ReputationEntry
}

// State returns a copy of the verifier's durable part, each list sorted by
// its key, so one verifier's state is one value.
func (v *Verifier) State() State {
	var st State
	for ref, s := range v.sessions {
		st.Grants = append(st.Grants, SessionGrant{ref, s.Grant})
	}
	for id, e := range v.telcoRep {
		st.Reputations = append(st.Reputations, TelcoReputation{id, *e})
	}
	for id := range v.suspects {
		st.Suspects = append(st.Suspects, id)
	}
	slices.SortFunc(st.Grants, func(a, b SessionGrant) int { return strings.Compare(a.URef, b.URef) })
	slices.SortFunc(st.Reputations, func(a, b TelcoReputation) int { return strings.Compare(a.IDT, b.IDT) })
	slices.Sort(st.Suspects)
	return st
}

// Restore loads a State, as State returned it, into the verifier.
func (v *Verifier) Restore(st State) {
	for _, g := range st.Grants {
		v.Bind(g.URef, g.Grant)
	}
	for _, r := range st.Reputations {
		v.telcoRep[r.IDT] = &r.Entry
	}
	for _, id := range st.Suspects {
		v.suspects[id] = true
	}
}
