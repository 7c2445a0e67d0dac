package billing

import (
	"fmt"
	"math"
	"slices"
	"time"
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

// session is everything the verifier holds for one bound session reference:
// evicting a session is deleting its row.
type session struct {
	idU, idT string
	fresh    [2]freshness // by Reporter-1: the replay gate
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

	sessions map[string]*session // by session reference, from BindSession

	telcoRep   map[string]*ReputationEntry
	userMisses map[string]map[string]bool // idU -> set of bTelcos disagreed with
	suspects   map[string]bool

	replays int

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

// BindSession tells the verifier which user and bTelco a session reference
// belongs to (from the SAP grant record).
func (v *Verifier) BindSession(ref, idU, idT string) {
	s := v.sessions[ref]
	if s == nil {
		s = &session{}
		v.sessions[ref] = s
	}
	s.idU, s.idT = idU, idT
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
		v.replays++
		if r.Reporter == ReporterTelco {
			v.repEntry(s.idT).Replays++
			v.PenalizeMisconduct(s.idT, 1.0)
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
	rep := v.repEntry(s.idT)
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
	rep.Penalty += degree
	// A mismatch contributes a degree-weighted failure to the EWMA: small
	// overshoots hurt less than brazen inflation ("weighted by the degree
	// of mismatch").
	fail := 1.0 - math.Min(degree, 1.0)
	rep.Score = rep.Score*(1-v.cfg.Alpha) + v.cfg.Alpha*fail

	// Track which bTelcos this user has disagreed with: a user whose
	// reports clash with many independent bTelcos is the likelier liar.
	set := v.userMisses[s.idU]
	if set == nil {
		set = make(map[string]bool)
		v.userMisses[s.idU] = set
	}
	set[s.idT] = true
	if len(set) >= v.cfg.SuspectTelcoCount {
		v.suspects[s.idU] = true
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

// PenalizeMisconduct applies a heavy reputation penalty for directly
// attested misbehavior — a replayed signed report, or UE watchdog
// evidence of accept-then-blackhole. Unlike an accounting mismatch
// (which could be honest skew), this evidence is unambiguous, so it
// weighs double the accounting alpha. degree in (0,1] scales the hit.
func (v *Verifier) PenalizeMisconduct(idT string, degree float64) {
	rep := v.repEntry(idT)
	if degree > 1 {
		degree = 1
	}
	if degree < 0 {
		degree = 0
	}
	alpha := math.Min(1, v.cfg.Alpha*2)
	rep.Score = rep.Score*(1-alpha) + alpha*(1.0-degree)
	rep.Penalty += degree
}

// PenalizeQoS applies a light reputation penalty for a verified
// quality-of-service violation — the paper's footnote-6 extension of the
// reputation system to QoS enforcement. degree in (0,1] scales the hit;
// QoS misses weigh half as much as accounting fraud.
func (v *Verifier) PenalizeQoS(idT string, degree float64) {
	rep := v.repEntry(idT)
	if degree > 1 {
		degree = 1
	}
	if degree < 0 {
		degree = 0
	}
	fail := 1.0 - degree
	alpha := v.cfg.Alpha / 2
	rep.Score = rep.Score*(1-alpha) + alpha*fail
}

// TelcoScore returns a bTelco's reputation (1.0 when unknown — "innocent
// until reported").
func (v *Verifier) TelcoScore(idT string) float64 {
	if r, ok := v.telcoRep[idT]; ok {
		return r.Score
	}
	return 1.0
}

// TelcoEntry returns the full reputation entry, or nil.
func (v *Verifier) TelcoEntry(idT string) *ReputationEntry { return v.telcoRep[idT] }

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

// MismatchesDropped counts mismatch incidents evicted from the bounded
// ring.
func (v *Verifier) MismatchesDropped() uint64 { return v.mmDropped }

// Replays counts replayed/stale reports rejected by the freshness gate.
func (v *Verifier) Replays() int { return v.replays }

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
	return Settlement{SessionRef: ref, IDT: s.idT, VerifiedBytes: total,
		Amount: float64(total) / 1e9 * pricePerGB, Disputed: s.disputed, Unpaired: len(s.halves)}
}

// Reports returns the bodies of the reports IngestOpened accepted from one
// side of a session, in arrival order.
func (v *Verifier) Reports(ref string, rep Reporter) []*Report {
	var out []*Report
	if s := v.sessions[ref]; s != nil {
		for _, r := range s.bodies {
			if r.Reporter == rep {
				out = append(out, r)
			}
		}
	}
	return out
}

// Reputations returns a copy of all reputation entries (snapshotting).
func (v *Verifier) Reputations() map[string]ReputationEntry {
	out := make(map[string]ReputationEntry, len(v.telcoRep))
	for id, e := range v.telcoRep {
		out[id] = *e
	}
	return out
}

// Suspects returns the suspect user list (snapshotting).
func (v *Verifier) Suspects() []string {
	out := make([]string, 0, len(v.suspects))
	for id := range v.suspects {
		out = append(out, id)
	}
	return out
}

// RestoreReputation reinstates a reputation entry (snapshot restore).
func (v *Verifier) RestoreReputation(idT string, score float64, reports, mismatches int, penalty float64) {
	v.telcoRep[idT] = &ReputationEntry{Score: score, Reports: reports, Mismatches: mismatches, Penalty: penalty}
}

// RestoreSuspect reinstates a suspect-list entry (snapshot restore).
func (v *Verifier) RestoreSuspect(idU string) { v.suspects[idU] = true }
