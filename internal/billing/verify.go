package billing

import (
	"fmt"
	"math"
	"sort"
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

// pairKey aligns reports "using the relative timestamp / sequence".
type pairKey struct {
	ref string
	seq uint32
}

type pendingPair struct {
	ue    *Report
	telco *Report
}

// repKey tracks per-(session, reporter) freshness for replay detection.
type repKey struct {
	ref string
	rep Reporter
}

type freshness struct {
	seq uint32
	rel time.Duration
}

// ErrReplayedReport is returned by Ingest for a stale or duplicated
// report: its sequence number or relative timestamp regresses against
// what the same reporter already submitted for the session. The envelope
// signature still verifies — replay is only detectable here.
var ErrReplayedReport = fmt.Errorf("billing: replayed or stale report")

// Verifier is the broker-side accounting pipeline: it ingests verified
// report bodies, aligns UE/bTelco pairs, applies the Fig. 5 discrepancy
// test, and maintains reputation state.
type Verifier struct {
	cfg VerifierConfig

	pending map[pairKey]*pendingPair
	// session -> bTelco identity, provided by the SAP grant records.
	sessionTelco map[string]string
	sessionUser  map[string]string

	telcoRep   map[string]*ReputationEntry
	userMisses map[string]map[string]bool // idU -> set of bTelcos disagreed with
	suspects   map[string]bool

	// lastSeen drives replay detection: the freshest (seq, rel) each
	// reporter has submitted per session.
	lastSeen map[repKey]freshness
	replays  int

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
		cfg:          cfg,
		pending:      make(map[pairKey]*pendingPair),
		sessionTelco: make(map[string]string),
		sessionUser:  make(map[string]string),
		telcoRep:     make(map[string]*ReputationEntry),
		userMisses:   make(map[string]map[string]bool),
		suspects:     make(map[string]bool),
		lastSeen:     make(map[repKey]freshness),
		audits:       make(map[reporterID]*audit),
	}
}

// BindSession tells the verifier which user and bTelco a session reference
// belongs to (from the SAP grant record).
func (v *Verifier) BindSession(ref, idU, idT string) {
	v.sessionTelco[ref] = idT
	v.sessionUser[ref] = idU
}

// Ingest adds one verified report body. When its counterpart (same
// session, same seq, other reporter) is already present, the pair is
// checked immediately and the outcome returned; otherwise ok=true with a
// nil mismatch.
func (v *Verifier) Ingest(r *Report) (*Mismatch, error) {
	if r == nil {
		return nil, fmt.Errorf("billing: nil report")
	}
	if _, known := v.sessionTelco[r.SessionRef]; !known {
		return nil, fmt.Errorf("billing: report for unknown session %q", r.SessionRef)
	}
	if r.Reporter != ReporterUE && r.Reporter != ReporterTelco {
		return nil, fmt.Errorf("billing: bad reporter %d", r.Reporter)
	}
	// Replay/staleness gate: a reporter's (seq, rel) must strictly
	// advance within a session. A signed old envelope sails through
	// signature checks, so freshness is this layer's job. Replayed
	// reports never reach pairing (no zombie pending pairs) and count as
	// misconduct for the bTelco (its meter, its replay — a UE replay is
	// handled by the suspect machinery via mismatches it causes).
	fk := repKey{r.SessionRef, r.Reporter}
	if last, seen := v.lastSeen[fk]; seen && (r.Seq <= last.seq || r.Rel < last.rel) {
		v.replays++
		if r.Reporter == ReporterTelco {
			if rep := v.repEntry(v.sessionTelco[r.SessionRef]); rep != nil {
				rep.Replays++
			}
			v.PenalizeMisconduct(v.sessionTelco[r.SessionRef], 1.0)
		}
		return nil, fmt.Errorf("%w: session %q reporter %d seq %d rel %v (last seq %d rel %v)",
			ErrReplayedReport, r.SessionRef, r.Reporter, r.Seq, r.Rel, last.seq, last.rel)
	}
	v.lastSeen[fk] = freshness{seq: r.Seq, rel: r.Rel}
	k := pairKey{r.SessionRef, r.Seq}
	p := v.pending[k]
	if p == nil {
		p = &pendingPair{}
		v.pending[k] = p
	}
	switch r.Reporter {
	case ReporterUE:
		p.ue = r
	case ReporterTelco:
		p.telco = r
	default:
		return nil, fmt.Errorf("billing: bad reporter %d", r.Reporter)
	}
	if p.ue == nil || p.telco == nil {
		return nil, nil
	}
	delete(v.pending, k)
	return v.check(p.ue, p.telco), nil
}

// check applies Fig. 5: threshold = DL_U * (loss_U + epsilon); a mismatch
// is |DL_T - DL_U| > threshold. Reputation is an EWMA over pass/fail with
// the failure contribution weighted by the degree of mismatch.
func (v *Verifier) check(ue, telco *Report) *Mismatch {
	idT := v.sessionTelco[ue.SessionRef]
	idU := v.sessionUser[ue.SessionRef]
	rep := v.telcoRep[idT]
	if rep == nil {
		rep = &ReputationEntry{Score: 1}
		v.telcoRep[idT] = rep
	}
	rep.Reports++

	slack := float64(v.cfg.SlackBytes)
	if slack == 0 {
		slack = 1500 // one MTU of slack for timing skew
	}
	threshold := float64(ue.DLBytes)*(ue.QoS.DLLossRate+v.cfg.Epsilon) + slack
	diff := math.Abs(float64(telco.DLBytes) - float64(ue.DLBytes))
	if diff <= threshold {
		rep.Score = rep.Score*(1-v.cfg.Alpha) + v.cfg.Alpha*1.0
		return nil
	}
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
	set := v.userMisses[idU]
	if set == nil {
		set = make(map[string]bool)
		v.userMisses[idU] = set
	}
	set[idT] = true
	if len(set) >= v.cfg.SuspectTelcoCount {
		v.suspects[idU] = true
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
	rep := v.telcoRep[idT]
	if rep == nil {
		rep = &ReputationEntry{Score: 1}
		v.telcoRep[idT] = rep
	}
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
}

// Settle computes the payout for a session from its aligned pairs seen so
// far, at the given price per GB. Reports carry *cumulative* session
// counters, so the newest aligned pair determines the verified total:
// the mean of the two sides when that pair agreed, the UE-attested value
// (conservative) when it mismatched. Disputed is set when any cycle
// mismatched.
func (v *Verifier) Settle(ref string, pairs []AlignedPair, pricePerGB float64) Settlement {
	var last *AlignedPair
	disputed := false
	for i := range pairs {
		if pairs[i].Mismatched {
			disputed = true
		}
		if last == nil || pairs[i].UE.Rel > last.UE.Rel {
			last = &pairs[i]
		}
	}
	s := Settlement{SessionRef: ref, IDT: v.sessionTelco[ref], Disputed: disputed}
	if last == nil {
		return s
	}
	total := last.UE.DLBytes + last.UE.ULBytes
	if !last.Mismatched {
		total = (total + last.Telco.DLBytes + last.Telco.ULBytes) / 2
	}
	s.VerifiedBytes = total
	s.Amount = float64(total) / 1e9 * pricePerGB
	return s
}

// AlignedPair is an evaluated report pair.
type AlignedPair struct {
	UE, Telco  *Report
	Mismatched bool
}

// AlignByTime pairs two report streams by nearest relative timestamp
// within half a reporting cycle — the broker "aligns U's and T's reports"
// by relative timestamp when sequence numbers drift.
func AlignByTime(ue, telco []*Report, cycle time.Duration) []AlignedPair {
	sort.Slice(ue, func(i, j int) bool { return ue[i].Rel < ue[j].Rel })
	sort.Slice(telco, func(i, j int) bool { return telco[i].Rel < telco[j].Rel })
	var out []AlignedPair
	j := 0
	for _, u := range ue {
		for j < len(telco) && telco[j].Rel < u.Rel-cycle/2 {
			j++
		}
		if j < len(telco) && absDur(telco[j].Rel-u.Rel) <= cycle/2 {
			out = append(out, AlignedPair{UE: u, Telco: telco[j]})
			j++
		}
	}
	return out
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
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
