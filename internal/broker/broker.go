// Package broker implements brokerd, the CellBricks broker service: the
// user's single contractual counterpart. It terminates the SAP protocol
// (authenticating its own users and on-demand bTelcos), ingests the
// verifiable billing report streams from both sides, runs the Fig. 5
// discrepancy checks, and feeds the resulting reputation back into its
// attachment-authorization policy — closing the loop the paper describes:
// "B can decide whether to authorize an attachment according to the
// reputation score of the bTelco as well as whether the user is on the
// suspect list."
package broker

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// Config configures a brokerd instance.
type Config struct {
	ID     string
	Key    *pki.KeyPair
	Anchor pki.PublicIdentity // CA trust anchor for bTelco certificates
	Now    func() time.Time   // certificate-validation clock; nil = time.Now

	// MinTelcoScore denies attachment through bTelcos whose reputation
	// fell below this threshold (0 disables the check).
	MinTelcoScore float64
	// Verifier tuning.
	VerifierConfig billing.VerifierConfig
	// MaxPricePerGB rejects bTelcos whose advertised terms exceed the
	// broker's willingness to pay (0 disables the check).
	MaxPricePerGB float64
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig(id string, key *pki.KeyPair, anchor pki.PublicIdentity) Config {
	return Config{
		ID:             id,
		Key:            key,
		Anchor:         anchor,
		MinTelcoScore:  0.5,
		VerifierConfig: billing.DefaultVerifierConfig(),
	}
}

// Brokerd is a running broker instance.
type Brokerd struct {
	cfg Config
	sap *sap.BrokerState

	mu            sync.Mutex
	verifier      *billing.Verifier
	telcoKeys     map[string]telcoKey         // idT -> certified key (and pass)
	grants        map[string]*sap.GrantRecord // URef -> grant
	qosViolations map[string]int              // idT -> QoS incident count
	policy        sap.Authorizer              // optional rule chain (see policy.go)
	shedHint      time.Duration               // non-zero = degraded: shed attach load
	shedCount     uint64                      // auth requests shed while degraded

	// Dynamic quarantine (see quarantine.go); nil quarCfg = disabled.
	quarCfg    *QuarantineConfig
	quarClock  func() time.Duration
	quar       map[string]*QuarantineEntry
	quarNotify func(idT string, entered bool, score float64)

	// Admission-control shedder (admission.go); nil = disabled.
	adm *admissionState
}

// telcoKey is what the broker remembers of a bTelco it granted through: the
// certified key its signed reports and checkpoints verify under, and the
// pass of the certificate its latest grant carried, which its MAC'd reports
// verify under (DESIGN.md §2.10). Only pub is in the snapshot; pass is nil
// from a restore until that bTelco's next grant.
type telcoKey struct {
	pub  pki.PublicIdentity
	pass *pki.Ticket
}

// New creates a brokerd.
func New(cfg Config) *Brokerd {
	b := &Brokerd{
		cfg:           cfg,
		verifier:      billing.NewVerifier(cfg.VerifierConfig),
		telcoKeys:     make(map[string]telcoKey),
		grants:        make(map[string]*sap.GrantRecord),
		qosViolations: make(map[string]int),
	}
	b.sap = sap.NewBrokerState(cfg.ID, cfg.Key, cfg.Anchor, sap.AuthorizerFunc(b.authorizeLocked), cfg.Now)
	return b
}

// ID returns the broker identifier.
func (b *Brokerd) ID() string { return b.cfg.ID }

// Public returns the broker's public identity for distribution to UEs and
// bTelcos.
func (b *Brokerd) Public() pki.PublicIdentity { return b.cfg.Key.Public() }

// RegisterUser issues membership for a UE key, returning its idU. The
// same key signs the UE's baseband traffic reports.
func (b *Brokerd) RegisterUser(pub pki.PublicIdentity) string { return b.sap.RegisterUser(pub) }

// RevokeUser invalidates a user's key.
func (b *Brokerd) RevokeUser(idU string) { b.sap.RevokeUser(idU) }

// authorizeLocked is the broker's admission policy, run by the commit
// stage of the broker transaction (for a handshake through sap.Decide,
// which is why the SAP state's policy assumes b.mu is already held):
// reputation gate, suspect gate, price gate, then QoS selection clamped
// to the bTelco's capability. Mutex held by caller.
func (b *Brokerd) authorizeLocked(idU, idT string, terms sap.ServiceTerms) (qos.Params, error) {
	if b.cfg.MinTelcoScore > 0 {
		if score := b.verifier.TelcoScore(idT); score < b.cfg.MinTelcoScore {
			return qos.Params{}, fmt.Errorf("bTelco %s reputation %.2f below %.2f", idT, score, b.cfg.MinTelcoScore)
		}
	}
	if b.verifier.Suspect(idU) {
		return qos.Params{}, fmt.Errorf("user %s on suspect list", idU)
	}
	if b.cfg.MaxPricePerGB > 0 && terms.PricePerGB > b.cfg.MaxPricePerGB {
		return qos.Params{}, fmt.Errorf("price %.2f/GB exceeds limit %.2f", terms.PricePerGB, b.cfg.MaxPricePerGB)
	}
	// The selection starts from qos.DefaultParams, before clamping to the
	// bTelco's capability. The quarantine rule always runs: the hard-block
	// veto applies even ahead of a custom policy chain (which may
	// additionally include QuarantineRule for the trial-phase demotion).
	d := &Decision{IDU: idU, IDT: idT, Terms: terms, QoS: qos.DefaultParams()}
	if err := b.QuarantineRule()(d); err != nil {
		return qos.Params{}, err
	}
	if b.policy != nil {
		return b.policy.Authorize(idU, idT, terms)
	}
	return d.QoS.Clamp(terms.Cap), nil
}

// ShedLoad puts the broker in degraded mode: attach authorizations are
// refused with a typed *wire.RetryAfterError carrying retryAfter as the
// backoff hint, instead of queueing work a recovering instance cannot
// serve. Report ingestion keeps running — reports are cheap, idempotent
// per (session, seq), and losing them would open a billing gap.
func (b *Brokerd) ShedLoad(retryAfter time.Duration) {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shedHint = retryAfter
}

// Resume leaves degraded mode.
func (b *Brokerd) Resume() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shedHint = 0
}

// Degraded reports whether the broker is shedding attach load.
func (b *Brokerd) Degraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shedHint > 0
}

// ShedCount reports how many auth requests were refused while degraded.
func (b *Brokerd) ShedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shedCount
}

// gateAttach is the entry gate of the single-request attach handlers: a
// degraded broker sheds with its typed retry-after hint, then an armed
// admission shedder (EnableAdmission) charges one attach. Both run before
// any nonce or crypto work, so a shed request can be retransmitted as is.
func (b *Brokerd) gateAttach() error {
	b.mu.Lock()
	hint := b.shedHint
	if hint > 0 {
		b.shedCount++
	}
	b.mu.Unlock()
	if hint > 0 {
		mtr.attachShed.Add(1)
		return &wire.RetryAfterError{After: hint}
	}
	return b.AdmitAttach(0)
}

// HandleAuthRequest processes one SAP request from a bTelco: the entry
// gate, then a broker transaction of one item. On grant it binds the
// session for billing alignment and remembers the bTelco's certified key
// for report verification.
func (b *Brokerd) HandleAuthRequest(req *sap.AuthReqT) (*sap.AuthResp, error) {
	if err := b.gateAttach(); err != nil {
		return nil, err
	}
	it := txItem{kind: txAuth, auth: req}
	b.transact(&it)
	return it.out.Auth, it.out.Err
}

// HandleReceipt signs a receipt for grants a bTelco was given under its
// pass (sap/pass.go): the request is authenticated like an authReqT, and
// every session reference in it must be a grant this broker recorded for
// that bTelco — the records it keeps and snapshots anyway. A refusal is a
// response naming the cause and, for a reference it will not vouch for,
// the reference. It passes no gate: one signature per 256 attaches.
func (b *Brokerd) HandleReceipt(req *sap.ReceiptReq) (*sap.ReceiptResp, error) {
	if req == nil {
		return nil, sap.ErrBadRequest
	}
	if cause := b.sap.CheckReceiptReq(req); cause != "" {
		mtr.receiptsRefused.Add(1)
		return &sap.ReceiptResp{Cause: cause}, nil
	}
	b.mu.Lock()
	disowned := ""
	for _, uref := range req.URefs {
		if rec := b.grants[uref]; rec == nil || rec.IDT != req.IDT {
			disowned = uref
			break
		}
	}
	b.mu.Unlock()
	if disowned != "" {
		mtr.receiptsRefused.Add(1)
		return &sap.ReceiptResp{Cause: "not a grant of this broker to " + req.IDT, Disowned: disowned}, nil
	}
	mtr.receiptsSigned.Add(1)
	return &sap.ReceiptResp{Granted: true, Receipt: b.sap.SignReceipt(req.IDT, req.URefs)}, nil
}

// Errors from report ingestion. A MAC'd report the broker will not take —
// no key it verifies under (then also ErrBadReporterKey), or a reporter
// whose checkpoints are overdue or incomplete — is billing.ErrMustSign:
// the same report, signed, is accepted.
var (
	ErrUnknownSession = errors.New("broker: report for unknown session")
	ErrBadReporterKey = errors.New("broker: report signature does not match registered key")
)

// HandleReport ingests one sealed traffic report from either side. The
// broker decrypts it with its own key, identifies the session and
// reporter, authenticates it — a signature against the key it expects for
// that reporter, or a MAC under the key that reporter's attach proved
// (DESIGN.md §2.10) — and runs the discrepancy check when the pair
// completes. Reports pass no gate (see ShedLoad).
func (b *Brokerd) HandleReport(env *billing.SealedReport) (*billing.Mismatch, error) {
	it := txItem{kind: txReport, report: env}
	b.transact(&it)
	return it.out.Mismatch, it.out.Err
}

// isReplay reports whether an ingest error is the replay rejection.
func isReplay(err error) bool { return errors.Is(err, billing.ErrReplayedReport) }

// qosViolationFactor is how far beyond the class target a UE-attested
// measurement must fall before the broker counts a QoS violation (ample
// slack for radio variability).
const qosViolationFactor = 3.0

// checkQoS compares the UE's attested quality metrics against the
// standardized profile of the QCI the broker granted — the reputation
// system extended to QoS enforcement. Mutex held by caller.
func (b *Brokerd) checkQoS(rec *sap.GrantRecord, r *billing.Report) {
	prof, ok := qos.Lookup(rec.QoS.QCI)
	if !ok {
		return
	}
	degree := 0.0
	if budget := float64(prof.DelayBudget); budget > 0 && r.QoS.DLDelayMs > budget*qosViolationFactor {
		degree += math.Min(r.QoS.DLDelayMs/(budget*qosViolationFactor)-1, 1)
	}
	if target := prof.LossRate; target > 0 && r.QoS.DLLossRate > math.Max(target*qosViolationFactor, 0.05) {
		degree += math.Min(r.QoS.DLLossRate/math.Max(target*qosViolationFactor, 0.05)-1, 1)
	}
	if degree > 0 {
		b.qosViolations[rec.IDT]++
		b.verifier.PenalizeQoS(rec.IDT, math.Min(degree, 1))
	}
}

// QoSViolations reports how many QoS-violation incidents the broker has
// recorded against a bTelco.
func (b *Brokerd) QoSViolations(idT string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.qosViolations[idT]
}

// TelcoScore exposes a bTelco's reputation.
func (b *Brokerd) TelcoScore(idT string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verifier.TelcoScore(idT)
}

// Suspect reports whether a user is on the suspect list.
func (b *Brokerd) Suspect(idU string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verifier.Suspect(idU)
}

// Mismatches returns all recorded discrepancy incidents.
func (b *Brokerd) Mismatches() []billing.Mismatch {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verifier.Mismatches()
}

// Checkpoints returns the verified checkpoints the broker holds from one
// reporter (idU for billing.ReporterUE, idT for billing.ReporterTelco),
// oldest first: with the report body and the reporter's public key, what
// billing.VerifyCheckpoint needs.
func (b *Brokerd) Checkpoints(rep billing.Reporter, id string) []*billing.Checkpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verifier.Checkpoints(rep, id)
}

// Reports returns the bodies of the reports the broker accepted from one
// side of a session, in arrival order: the other thing an arbiter asks for.
func (b *Brokerd) Reports(uref string, rep billing.Reporter) []*billing.Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.verifier.Reports(uref, rep)
}

// Grant returns the grant record for a session reference.
func (b *Brokerd) Grant(uref string) *sap.GrantRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.grants[uref]
}

// SettleSession computes the payout owed to the bTelco for a session: what
// report ingestion has concluded about it so far, at the price agreed in
// the SAP exchange.
func (b *Brokerd) SettleSession(uref string) (billing.Settlement, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec := b.grants[uref]
	if rec == nil {
		return billing.Settlement{}, fmt.Errorf("%w: %s", ErrUnknownSession, uref)
	}
	return b.verifier.Settle(uref, rec.Terms.PricePerGB), nil
}
