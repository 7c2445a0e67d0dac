package broker

import (
	"errors"
	"fmt"

	"cellbricks/internal/billing"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
)

// The broker's two decisions (DESIGN.md §2.5): this file holds the only code
// that grants an attach or ingests a report. Each handler runs its crypto
// outside Brokerd.mu and its state changes inside it, so concurrent callers
// serialize on state, not on signatures and MACs:
//
//	handshake  gate; sap.Validate; b.mu: Decide, score, mint, the bTelco's
//	           key and pass, Bind; sap.Finalize
//	report     billing.Open; b.mu: the grant and its keys; Authenticate;
//	           b.mu: ingestLocked
//
// A grant is bound before it is finalized: if sealing fails the caller gets
// the error and the (unusable, never delivered) grant stays bound. The
// session secret lives on the handler's stack from the mint to Finalize: the
// broker keeps no copy.

// HandleAuthRequest processes one SAP request from a bTelco: the entry gate,
// the stateless checks, then the replay filter and policy (Decide reaches
// authorizeLocked through the SAP state's policy) under the lock. On grant it
// mints the session, binds its grant — the session's row in the verifier —
// and remembers the bTelco's certified key for report verification, then
// seals and signs the responses.
func (b *Brokerd) HandleAuthRequest(req *sap.AuthReqT) (*sap.AuthResp, error) {
	if err := b.gateAttach(); err != nil {
		return nil, err
	}
	v, err := b.sap.Validate(req)
	if err != nil {
		mtr.attachDenied.Add(1)
		return nil, err
	}

	b.mu.Lock()
	var params qos.Params
	cause := v.DenyCause
	if cause == "" {
		params, cause = b.sap.Decide(v, nil)
	}
	// Every reply — grant or denial — carries the requester's current
	// reputation, so scores propagate into SAP offers.
	score := b.verifier.TelcoScore(req.IDT)
	if cause != "" {
		b.mu.Unlock()
		mtr.attachDenied.Add(1)
		return &sap.AuthResp{Granted: false, Cause: cause, TelcoScore: score}, nil
	}
	ss, uref, err := sap.MintSession()
	if err != nil {
		b.mu.Unlock()
		mtr.attachDenied.Add(1)
		return nil, err
	}
	// Same digest, same certificate, same key: only a bTelco's first grant,
	// its first after a restore and one under a renewed certificate store.
	if k := b.telcoKeys[req.IDT]; k.pass == nil || k.pass.Locator != v.TelcoPass().Locator {
		pass := v.TelcoPass()
		b.telcoKeys[req.IDT] = telcoKey{pub: req.Cert.Identity, pass: &pass}
	}
	b.verifier.Bind(uref, billing.Grant{IDU: v.Vec.IDU, IDT: req.IDT, QCI: params.QCI, PricePerGB: req.Terms.PricePerGB})
	b.mu.Unlock()
	mtr.attachGranted.Add(1)

	resp, _, err := b.sap.Finalize(v, params, ss, uref)
	if err != nil {
		return nil, err
	}
	resp.TelcoScore = score
	return resp, nil
}

// HandleReport ingests one sealed traffic report from either side. The
// broker decrypts it with its own key, looks up the grant of the session it
// names and the keys it is expected under — the reporter's public key, and
// for a bTelco the pass of the certificate its latest grant carried (a UE's
// MAC key needs no state: it derives from the report's own box) —
// authenticates it, a signature or a MAC under the key that reporter's
// attach proved (DESIGN.md §2.10), and ingests it. Reports pass no gate (see
// ShedLoad).
func (b *Brokerd) HandleReport(env *billing.SealedReport) (*billing.Mismatch, error) {
	if env == nil {
		return nil, sap.ErrBadRequest
	}
	o, err := billing.Open(env, b.cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("broker: report unreadable: %w", err)
	}
	r := o.Report

	b.mu.Lock()
	g, ok := b.verifier.Lookup(r.SessionRef)
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, r.SessionRef)
	}
	var signer pki.PublicIdentity
	var mac *pki.Ticket
	switch r.Reporter {
	case billing.ReporterUE:
		signer = b.sap.UserKey(g.IDU)
	case billing.ReporterTelco:
		k := b.telcoKeys[g.IDT]
		signer, mac = k.pub, k.pass
	}
	b.mu.Unlock()

	if o.MACd && r.Reporter == billing.ReporterUE {
		// The key of the ticket the report's box rides, if that is a
		// ticket this broker minted for the session's user.
		if t, ok := b.cfg.Key.TicketMAC(env.Sealed, g.IDU); ok {
			mac = &t
		}
	}
	if err := o.Authenticate(signer, mac); err != nil {
		if errors.Is(err, billing.ErrBadCheckpoint) {
			mtr.checkpointsRefused.Add(1)
		}
		if o.MACd {
			// The reporter's answer to either is the same report, signed.
			return nil, fmt.Errorf("%w: %w", ErrBadReporterKey, billing.ErrMustSign)
		}
		return nil, ErrBadReporterKey
	}

	b.mu.Lock()
	mm, err := b.ingestLocked(&o, g)
	b.mu.Unlock()
	return mm, err
}

// ingestLocked ingests an authenticated report, runs the Fig. 5 discrepancy
// check when the pair completes and the checkpoint audit of its reporter
// (DESIGN.md §2.10), and reviews the bTelco against the quarantine
// thresholds. Mutex held.
func (b *Brokerd) ingestLocked(o *billing.Opened, g billing.Grant) (*billing.Mismatch, error) {
	r := o.Report
	if b.verifier.MustSign(o) {
		return nil, billing.ErrMustSign
	}
	if r.Reporter == billing.ReporterUE {
		b.checkQoS(g, r)
	}
	mtr.reports.Add(1)
	mm, err := b.verifier.IngestOpened(o)
	if mm != nil {
		mtr.mismatches.Add(1)
	}
	if isReplay(err) {
		mtr.replays.Add(1)
	}
	if err == nil && o.MACd {
		mtr.reportsMACd.Add(1)
	}
	if o.Kept {
		mtr.checkpointsVerified.Add(1)
	}
	if o.Refused {
		mtr.checkpointsRefused.Add(1)
	}
	// Any ingest can move the reputation — pass, mismatch or replay
	// penalty — so every ingest owes a quarantine review.
	b.reviewTelcoLocked(g.IDT, mm != nil || isReplay(err))
	return mm, err
}
