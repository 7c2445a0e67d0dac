package broker

import (
	"errors"
	"fmt"

	"cellbricks/internal/billing"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
)

// The broker transaction (DESIGN.md §2.5). Every SAP handshake and billing
// report is decided by the same five stages, one item at a time, whether it
// arrives alone (HandleAuthRequest, HandleReport) or is drained from a
// Batcher queue:
//
//	prepare   stateless  sap.Validate; report decrypt + decode (billing.Open)
//	resolve   b.mu       a report's grant record, expected signer, the
//	                     bTelco's pass
//	verify    stateless  report MAC or signature, and its checkpoint's
//	                     signature (billing's Authenticate)
//	commit    b.mu       arrival order: nonce + policy, mint, grant
//	                     bookkeeping, report ingest with its reporter's
//	                     checkpoint audit, and the quarantine review of its
//	                     bTelco
//	finalize  stateless  seal + sign a granted handshake
//
// An item that fails a stage carries the failure in out.Err and the
// later stages skip it. A grant is committed before it is finalized: if
// sealing fails the caller gets the error and the (unusable, never
// delivered) grant record stays.

type txKind uint8

const (
	txAuth txKind = iota
	txReport
)

// txItem is one request moving through the stages; exactly one of
// auth/report is the input, selected by kind.
type txItem struct {
	kind   txKind
	auth   *sap.AuthReqT
	report *billing.SealedReport

	v      *sap.ValidatedAuth // prepare: validated handshake
	o      billing.Opened     // prepare: opened report; verify, commit: what they found
	signer pki.PublicIdentity // resolve: key the report's signatures must verify under
	pass   *pki.Ticket        // resolve: key a bTelco's MAC'd report must verify under
	// rec is the session a report names (resolve), or the grant a
	// handshake just committed (commit; nil = not granted).
	rec   *sap.GrantRecord
	score float64 // commit: the bTelco's reputation, echoed in the grant

	out BatchOutcome
}

// transact runs the stages for one item; it is the only driver. The
// crypto stages run outside the lock, so concurrent callers serialize on
// state, not on signatures and MACs.
func (b *Brokerd) transact(it *txItem) {
	b.prepare(it)
	b.mu.Lock()
	b.resolveLocked(it)
	b.mu.Unlock()
	b.verify(it)
	b.mu.Lock()
	b.commitLocked(it)
	b.mu.Unlock()
	b.finalize(it)
}

// prepare does the work that needs no broker state. sap.Validate and pki
// are safe for concurrent use.
func (b *Brokerd) prepare(it *txItem) {
	switch it.kind {
	case txAuth:
		it.v, it.out.Err = b.sap.Validate(it.auth)
	case txReport:
		if it.report == nil {
			it.out.Err = sap.ErrBadRequest
			return
		}
		var err error
		if it.o, err = billing.Open(it.report, b.cfg.Key); err != nil {
			it.out.Err = fmt.Errorf("broker: report unreadable: %w", err)
		}
	}
}

// resolveLocked looks up the session a report names and the keys it is
// expected under: the reporter's public key, and for a bTelco the pass of
// the certificate its latest grant carried (a UE's MAC key needs no state:
// verify derives it from the report's own box). Mutex held.
func (b *Brokerd) resolveLocked(it *txItem) {
	if it.out.Err != nil || it.kind != txReport {
		return
	}
	if it.rec = b.grants[it.o.Report.SessionRef]; it.rec == nil {
		return
	}
	switch it.o.Report.Reporter {
	case billing.ReporterUE:
		it.signer = b.sap.UserKey(it.rec.IDU)
	case billing.ReporterTelco:
		k := b.telcoKeys[it.rec.IDT]
		it.signer, it.pass = k.pub, k.pass
	}
}

// verify runs the crypto that needed resolve's answer, outside the lock
// so concurrent requests do not serialize on it.
func (b *Brokerd) verify(it *txItem) {
	if it.out.Err != nil || it.kind != txReport {
		return
	}
	if it.rec == nil {
		it.out.Err = fmt.Errorf("%w: %s", ErrUnknownSession, it.o.Report.SessionRef)
		return
	}
	mac := it.pass
	if it.o.MACd && it.o.Report.Reporter == billing.ReporterUE {
		// The key of the ticket the report's box rides, if that is a
		// ticket this broker minted for the session's user.
		if t, ok := b.cfg.Key.TicketMAC(it.report.Sealed, it.rec.IDU); ok {
			mac = &t
		}
	}
	if err := it.o.Authenticate(it.signer, mac); err != nil {
		if errors.Is(err, billing.ErrBadCheckpoint) {
			mtr.checkpointsRefused.Add(1)
		}
		it.out.Err = ErrBadReporterKey
		if it.o.MACd {
			// The reporter's answer to either is the same report, signed.
			it.out.Err = fmt.Errorf("%w: %w", ErrBadReporterKey, billing.ErrMustSign)
		}
	}
}

// commitLocked applies one item's state change. Mutex held.
func (b *Brokerd) commitLocked(it *txItem) {
	switch {
	case it.kind == txAuth:
		b.commitAuthLocked(it)
	case it.out.Err != nil: // failed an earlier stage: nothing to commit
	default:
		b.commitReportLocked(it)
	}
}

// commitAuthLocked decides a handshake: replay filter and policy (Decide
// reaches authorizeLocked through the SAP state's policy), then mint and
// record the grant — bound for billing alignment, with the bTelco's
// certified key remembered for report verification. Mutex held.
func (b *Brokerd) commitAuthLocked(it *txItem) {
	if it.out.Err != nil {
		mtr.attachDenied.Add(1)
		return
	}
	req, cause := it.auth, it.v.DenyCause
	var params qos.Params
	if cause == "" {
		params, cause = b.sap.Decide(it.v, nil)
	}
	// Every reply — grant or denial — carries the requester's current
	// reputation, so scores propagate into SAP offers.
	it.score = b.verifier.TelcoScore(req.IDT)
	if cause != "" {
		mtr.attachDenied.Add(1)
		it.out.Auth = &sap.AuthResp{Granted: false, Cause: cause, TelcoScore: it.score}
		return
	}
	ss, uref, err := sap.MintSession()
	if err != nil {
		mtr.attachDenied.Add(1)
		it.out.Err = err
		return
	}
	it.rec = &sap.GrantRecord{URef: uref, IDU: it.v.Vec.IDU, IDT: req.IDT, SS: ss, Terms: req.Terms, QoS: params}
	b.grants[uref] = it.rec
	// Same digest, same certificate, same key: only a bTelco's first grant,
	// its first after a restore and one under a renewed certificate store.
	if k := b.telcoKeys[req.IDT]; k.pass == nil || k.pass.Locator != it.v.TelcoPass().Locator {
		pass := it.v.TelcoPass()
		b.telcoKeys[req.IDT] = telcoKey{pub: req.Cert.Identity, pass: &pass}
	}
	b.verifier.BindSession(uref, it.rec.IDU, req.IDT)
	mtr.attachGranted.Add(1)
}

// commitReportLocked ingests an authenticated report, runs the Fig. 5
// discrepancy check when the pair completes and the checkpoint audit of its
// reporter (DESIGN.md §2.10), and reviews the bTelco against the quarantine
// thresholds. Mutex held.
func (b *Brokerd) commitReportLocked(it *txItem) {
	r := it.o.Report
	if b.verifier.MustSign(&it.o) {
		it.out.Err = billing.ErrMustSign
		return
	}
	if r.Reporter == billing.ReporterUE {
		b.checkQoS(it.rec, r)
	}
	mtr.reports.Add(1)
	mm, err := b.verifier.IngestOpened(&it.o)
	if mm != nil {
		mtr.mismatches.Add(1)
	}
	if isReplay(err) {
		mtr.replays.Add(1)
	}
	if err == nil && it.o.MACd {
		mtr.reportsMACd.Add(1)
	}
	if it.o.Kept {
		mtr.checkpointsVerified.Add(1)
	}
	if it.o.Refused {
		mtr.checkpointsRefused.Add(1)
	}
	it.out.Mismatch, it.out.Err = mm, err
	// Any ingest can move the reputation — pass, mismatch or replay
	// penalty — so every ingest owes a quarantine review.
	b.reviewTelcoLocked(it.rec.IDT, mm != nil || isReplay(err))
}

// finalize seals and signs the responses of a committed grant.
func (b *Brokerd) finalize(it *txItem) {
	if it.kind != txAuth || it.rec == nil {
		return
	}
	resp, _, err := b.sap.Finalize(it.v, it.rec.QoS, it.rec.SS, it.rec.URef)
	if err != nil {
		it.out.Err = err
		return
	}
	resp.TelcoScore = it.score
	it.out.Auth = resp
}
