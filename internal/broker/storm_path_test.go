package broker

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// --- admission control ---

func TestAdmissionRateGate(t *testing.T) {
	var now time.Duration
	a := NewAdmission(AdmissionConfig{Rate: 1, Burst: 2, RetryAfter: 500 * time.Millisecond},
		func() time.Duration { return now })
	if err := a.Admit(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(0); err != nil {
		t.Fatal(err)
	}
	err := a.Admit(0) // bucket drained
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 500*time.Millisecond {
		t.Fatalf("err=%v, want typed 500ms hint", err)
	}
	now += time.Second // refills one token
	if err := a.Admit(0); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
	admitted, rateSheds, queueSheds := a.Stats()
	if admitted != 3 || rateSheds != 1 || queueSheds != 0 {
		t.Fatalf("stats = %d/%d/%d", admitted, rateSheds, queueSheds)
	}
}

func TestAdmissionQueueGateDoublesHint(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Rate: 1000, Burst: 1000, MaxQueue: 4, RetryAfter: time.Second},
		func() time.Duration { return 0 })
	if err := a.Admit(3); err != nil {
		t.Fatal(err)
	}
	err := a.Admit(4)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 2*time.Second {
		t.Fatalf("err=%v, want doubled 2s hint", err)
	}
	// The queue gate outranks available tokens.
	_, _, queueSheds := a.Stats()
	if queueSheds != 1 {
		t.Fatalf("queueSheds=%d", queueSheds)
	}
}

type txKind uint8

const (
	txAuth txKind = iota
	txReport
)

// txItem is one request under test and what its handler returned: exactly
// one of auth/report is the input, selected by kind.
type txItem struct {
	kind   txKind
	auth   *sap.AuthReqT
	report *billing.SealedReport

	resp     *sap.AuthResp
	mismatch *billing.Mismatch
	err      error
}

// submit delivers one request through its handler, the one way into the
// broker's decisions, and records the outcome in the item.
func submit(h *harness, in *txItem) *txItem {
	switch in.kind {
	case txAuth:
		in.resp, in.err = h.brk.HandleAuthRequest(in.auth)
	case txReport:
		in.mismatch, in.err = h.brk.HandleReport(in.report)
	}
	return in
}

// errClass maps an outcome error to the sentinel it wraps (the full text
// embeds random session references).
func errClass(err error) error {
	for _, target := range []error{sap.ErrBadRequest, ErrBadReporterKey, ErrUnknownSession, billing.ErrReplayedReport, billing.ErrMustSign} {
		if errors.Is(err, target) {
			return target
		}
	}
	return err
}

// verdict flattens an outcome to what a caller can observe of it.
func verdict(o *txItem) string {
	switch {
	case o.err != nil:
		return "err: " + errClass(o.err).Error()
	case o.resp != nil:
		return fmt.Sprintf("auth granted=%v cause=%q score=%v", o.resp.Granted, o.resp.Cause, o.resp.TelcoScore)
	}
	return fmt.Sprintf("report mismatch=%v", o.mismatch != nil)
}

// The adversarial inputs, each through its handler: the broker reaches the
// verdict and cause the row names, and never panics. (The name is from when
// a third of the rows were the HMAC resume's; that protocol is gone from
// the broker.)
func TestBrokerResumeDenyLadder(t *testing.T) {
	// ticketed is the harness UE's second attach request: the first one's
	// grant armed a ticket (DESIGN.md §2.8), so this one rides it unsigned.
	ticketed := func(t *testing.T, h *harness) *sap.AuthReqT {
		t.Helper()
		h.attach(t)
		req := authReq(t, h)
		if len(req.ReqU.Sig) != 0 {
			t.Fatal("the attach after a grant is not ticketed")
		}
		return req
	}
	// macdReq is the harness bTelco's forward once it holds the broker's
	// pass (DESIGN.md §2.9): a 32-byte MAC where its signature went.
	macdReq := func(t *testing.T, h *harness) *sap.AuthReqT {
		t.Helper()
		req := authReq(t, h)
		if len(req.Sig) != 32 {
			t.Fatalf("the forward after a grant carries a %d-byte Sig", len(req.Sig))
		}
		return req
	}
	tankScore := func(t *testing.T, h *harness, ref string) {
		t.Helper()
		for seq := uint32(1); seq <= 10; seq++ {
			h.report(t, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000)
			h.report(t, billing.ReporterTelco, h.telco.Key, ref, seq, 5_000_000)
		}
	}

	cases := []struct {
		name string
		// build prepares the harness and returns the one item under test.
		build     func(t *testing.T, h *harness) *txItem
		wantErr   error  // errors.Is target; nil = the item must not error
		wantCause string // substring of the denial cause, for attach items
		check     func(t *testing.T, h *harness)
	}{
		{name: "auth: nil", wantErr: sap.ErrBadRequest,
			build: func(t *testing.T, h *harness) *txItem { return &txItem{kind: txAuth} }},
		{name: "auth: replayed nonce", wantCause: "replayed nonce",
			build: func(t *testing.T, h *harness) *txItem {
				req := authReq(t, h)
				if resp, err := h.brk.HandleAuthRequest(req); err != nil || !resp.Granted {
					t.Fatalf("first delivery: %v %+v", err, resp)
				}
				return &txItem{kind: txAuth, auth: req}
			}},
		{name: "ticket: locator replayed without its key", wantCause: "undecryptable",
			build: func(t *testing.T, h *harness) *txItem {
				req := ticketed(t, h)
				req.ReqU.SealedVec = append(req.ReqU.SealedVec[:32:32], bytes.Repeat([]byte{0x5a}, len(req.ReqU.SealedVec)-32)...)
				reqT, _ := h.telco.ForwardRequest(&req.ReqU)
				return &txItem{kind: txAuth, auth: reqT}
			}},
		{name: "ticket: minted for user A, idU B inside the vector", wantCause: "ticket invalid",
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				victim, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{94}, 32))
				evil := *h.ue // A's SIM, cloned with its ticket, claiming to be B
				evil.IDU = h.brk.RegisterUser(victim.Public())
				reqU, _, err := evil.NewAttachRequest(h.telco.IDT)
				if err != nil || len(reqU.Sig) != 0 {
					t.Fatalf("cloned SIM did not ride the ticket: %v", err)
				}
				reqT, _ := h.telco.ForwardRequest(reqU)
				return &txItem{kind: txAuth, auth: reqT}
			}},
		{name: "ticket: after RevokeUser", wantCause: "revoked",
			build: func(t *testing.T, h *harness) *txItem {
				req := ticketed(t, h)
				h.brk.RevokeUser(h.ue.IDU)
				return &txItem{kind: txAuth, auth: req}
			}},
		// Until PR 20 the harness bTelco forwarded this one signed; now its
		// own stale pass would fail first (the "pass:" rows below), so the
		// ticket's row goes through a bTelco that holds none.
		{name: "ticket: presented to a broker built from a different seed", wantCause: "undecryptable",
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				h.rekeyBroker(t)
				h.telco.DropPasses()
				return &txItem{kind: txAuth, auth: authReq(t, h)}
			},
			check: func(t *testing.T, h *harness) {
				// The ticket went on the refused attempt, so this is the
				// full signed handshake — and the new broker grants it.
				req := authReq(t, h)
				if resp, err := h.brk.HandleAuthRequest(req); len(req.ReqU.Sig) == 0 || err != nil || !resp.Granted {
					t.Fatalf("fallback attach: sig %d B, %v %+v", len(req.ReqU.Sig), err, resp)
				}
			}},
		{name: "ticket: signed request with its signature stripped", wantCause: "ticket invalid",
			build: func(t *testing.T, h *harness) *txItem {
				req := authReq(t, h)
				req.ReqU.Sig = nil
				reqT, _ := h.telco.ForwardRequest(&req.ReqU)
				return &txItem{kind: txAuth, auth: reqT}
			}},
		{name: "pass: presented to a broker built from a different seed", wantCause: "bTelco MAC invalid",
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				h.rekeyBroker(t)
				return &txItem{kind: txAuth, auth: macdReq(t, h)}
			},
			check: func(t *testing.T, h *harness) {
				// The refusal drops the pass, and the next forward is the
				// signed handshake, which the new broker grants.
				if _, _, err := h.telco.HandleResponse(h.brk.Public(), &sap.AuthResp{Cause: "bTelco MAC invalid"}); !errors.Is(err, sap.ErrStalePass) {
					t.Fatalf("bTelco on the refusal: %v", err)
				}
				req := authReq(t, h)
				if resp, err := h.brk.HandleAuthRequest(req); len(req.Sig) != 64 || err != nil || !resp.Granted {
					t.Fatalf("re-forwarded handshake: bTelco sig %d B, %v %+v", len(req.Sig), err, resp)
				}
			}},
		{name: "pass: MAC'd request with its tag flipped", wantCause: "bTelco MAC invalid",
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				req := macdReq(t, h)
				req.Sig[31] ^= 1
				return &txItem{kind: txAuth, auth: req}
			}},
		{name: "pass: policy re-runs for a MAC'd request", wantCause: "authorization denied",
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				tankScore(t, h, ref) // reputation below MinTelcoScore, and quarantined
				return &txItem{kind: txAuth, auth: macdReq(t, h)}
			}},
		{name: "pass: replayed MAC'd request", wantCause: "replayed nonce",
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				req := macdReq(t, h)
				if resp, err := h.brk.HandleAuthRequest(req); err != nil || !resp.Granted || len(resp.T.Sig) != 0 {
					t.Fatalf("first delivery: %v %+v", err, resp)
				}
				return &txItem{kind: txAuth, auth: req}
			}},
		{name: "report: wrong signer", wantErr: ErrBadReporterKey,
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				// The telco forges a UE report with its own key.
				return sealItem(t, h, &billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1, DLBytes: 1}, h.telco.Key)
			}},
		{name: "report: unknown session", wantErr: ErrUnknownSession,
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				return sealItem(t, h, &billing.Report{SessionRef: "bogus", Reporter: billing.ReporterUE, Seq: 1}, h.ueKey)
			}},
		{name: "report: replayed seq", wantErr: billing.ErrReplayedReport,
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
				h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 1_000_000)
				stale := &billing.Report{SessionRef: ref, Reporter: billing.ReporterTelco, Seq: 1, Rel: 30 * time.Second, DLBytes: 1_000_000}
				return sealItem(t, h, stale, h.telco.Key)
			},
			check: func(t *testing.T, h *harness) {
				if s := h.brk.TelcoScore("h-telco"); s >= 1 {
					t.Fatalf("replay not penalized: score %v", s)
				}
			}},
		{name: "report: QoS violation",
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				// QCI 9 budget 300 ms; the 3x factor puts the line at 900 ms.
				r := &billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1, Rel: 30 * time.Second,
					DLBytes: 1_000_000, QoS: billing.QoSMetrics{DLDelayMs: 2500}}
				return sealItem(t, h, r, h.ueKey)
			},
			check: func(t *testing.T, h *harness) {
				if s := h.brk.TelcoScore("h-telco"); s >= 1 {
					t.Fatalf("QoS violation left the score at %v", s)
				}
			}},
		// The billing leg after first contact (DESIGN.md §2.10): a MAC'd
		// report is accepted only under the key its reporter's attach proved
		// — refused, it is asked for signed — and a reporter whose checkpoints
		// lapse goes back to signing, at no cost in reputation.
		{name: "report: MAC under the wrong key", wantErr: billing.ErrMustSign,
			build: func(t *testing.T, h *harness) *txItem {
				m := h.ueMACStream(t)
				m.mac.Key[0] ^= 1
				return &txItem{kind: txReport, report: m.next(t)}
			}},
		{name: "report: MAC on a session whose attach was signed", wantErr: ErrBadReporterKey,
			build: func(t *testing.T, h *harness) *txItem {
				// First contact rides an X25519 exchange: there is no ticket
				// lineage, so whatever key tags the report the broker derives none.
				_, ref := h.attach(t)
				if _, ticketed := h.ueSealer.MACKey(); ticketed {
					t.Fatal("first contact rode a ticket")
				}
				m := &macStream{h: h, signer: h.ueKey, sealer: h.ueSealer, mac: pki.Ticket{Key: [32]byte{1}}, rep: billing.ReporterUE, ref: ref}
				m.next(t) // the stream's signed first report
				return &txItem{kind: txReport, report: m.next(t)}
			}},
		{name: "report: MAC from a bTelco whose certificate digest changed", wantErr: ErrBadReporterKey,
			build: func(t *testing.T, h *harness) *txItem {
				m := h.telcoMACStream(t)
				m.send(t, 3)
				// The bTelco renews its certificate and is granted under the
				// new one: the broker's pass for it moves with the digest, and
				// a MAC under the old pass is a MAC under the wrong key.
				old := h.telco
				renewed := h.ca.Issue("h-telco", "btelco", old.Key.Public(), h.now.Add(-time.Minute), h.now.Add(time.Hour))
				h.telco = &sap.TelcoState{IDT: old.IDT, Key: old.Key, Cert: renewed, Terms: old.Terms}
				h.attach(t)
				h.telco = old
				return &txItem{kind: txReport, report: m.next(t)}
			}},
		{name: "report: checkpoint stripped from its carrier", wantErr: billing.ErrMustSign,
			build: func(t *testing.T, h *harness) *txItem {
				m := h.telcoMACStream(t)
				m.send(t, 255)
				carrier := m.next(t)
				if carrier.Checkpoint == nil {
					t.Fatal("the 256th MAC'd report carries no checkpoint")
				}
				return &txItem{kind: txReport, report: &billing.SealedReport{Sealed: carrier.Sealed, Sig: carrier.Sig}}
			},
			check: func(t *testing.T, h *harness) {
				if n := len(h.brk.Checkpoints(billing.ReporterTelco, "h-telco")); n != 0 {
					t.Fatalf("%d checkpoints kept", n)
				}
			}},
		{name: "report: checkpoint omitting an ingested report",
			build: func(t *testing.T, h *harness) *txItem {
				m := h.telcoMACStream(t)
				// One MAC'd report from a second stream under the same pass:
				// the broker ingests it, and no checkpoint of m will list it.
				side := &macStream{h: h, signer: m.signer, sealer: m.sealer, mac: m.mac, rep: m.rep, ref: m.ref, seq: m.seq}
				side.next(t)
				side.send(t, 1)
				m.seq = side.seq
				m.send(t, 2*256-1) // the first miss, at report 256, is not yet an omission
				return &txItem{kind: txReport, report: m.next(t)}
			},
			check: func(t *testing.T, h *harness) {
				// A bTelco that restarted mid-interval looks the same: no penalty.
				if s := h.brk.TelcoScore("h-telco"); s != 1 {
					t.Fatalf("an omission moved the bTelco's score to %v", s)
				}
				if n := len(h.brk.Checkpoints(billing.ReporterTelco, "h-telco")); n != 2 {
					t.Fatalf("%d checkpoints kept, want both: each is evidence for what it lists", n)
				}
				if _, err := h.brk.HandleReport(h.macd.next(t)); !errors.Is(err, billing.ErrMustSign) {
					t.Fatalf("MAC'd report after an omission: %v", err)
				}
			}},
		{name: "report: overdue checkpoint",
			build: func(t *testing.T, h *harness) *txItem {
				// A UE that loses its stream every 200 reports never fills a
				// checkpoint: three streams in, 512 MAC'd reports are uncovered.
				m := h.ueMACStream(t)
				var env *billing.SealedReport
				for macd := 0; macd < 2*256; {
					if env != nil {
						if _, err := h.brk.HandleReport(env); err != nil {
							t.Fatal(err)
						}
					}
					if env = m.next(t); len(env.Sig) != 32 {
						continue // a new stream's signed first report
					}
					if macd++; macd%200 == 0 {
						m.stream = billing.Stream{}
					}
				}
				return &txItem{kind: txReport, report: env}
			},
			check: func(t *testing.T, h *harness) {
				if h.brk.verifier.Suspect(h.ue.IDU) {
					t.Fatal("a UE behind on its checkpoints became a suspect")
				}
				if _, err := h.brk.HandleReport(h.macd.next(t)); !errors.Is(err, billing.ErrMustSign) {
					t.Fatalf("MAC'd report from an overdue reporter: %v", err)
				}
				// It signs, and is back in MAC mode.
				h.macd.seq++
				h.report(t, billing.ReporterUE, h.ueKey, h.macd.ref, h.macd.seq, 1)
				h.macd.send(t, 1)
			}},
		{name: "report: replayed checkpoint",
			build: func(t *testing.T, h *harness) *txItem {
				m := h.telcoMACStream(t)
				bearer := m.send(t, 256)
				if bearer.Checkpoint == nil || len(h.brk.Checkpoints(billing.ReporterTelco, "h-telco")) != 1 {
					t.Fatal("the 256th MAC'd report did not deliver a checkpoint")
				}
				// On a signed report: a MAC covers the checkpoint it rides with,
				// so only the reporter could hang it on a MAC'd one.
				fresh := sealedReport(t, h, m.ref, billing.ReporterTelco, h.telco.Key, m.seq+1, 1)
				fresh.report.Checkpoint = bearer.Checkpoint
				return fresh
			},
			check: func(t *testing.T, h *harness) {
				if n := len(h.brk.Checkpoints(billing.ReporterTelco, "h-telco")); n != 1 {
					t.Fatalf("%d checkpoints kept after a replay, want 1", n)
				}
				if s := h.brk.TelcoScore("h-telco"); s < 1 {
					t.Fatalf("a replayed checkpoint on an honest report cost reputation: %v", s)
				}
			}},
		{name: "report: replayed MAC'd report", wantErr: billing.ErrReplayedReport,
			build: func(t *testing.T, h *harness) *txItem {
				m := h.telcoMACStream(t)
				return &txItem{kind: txReport, report: m.send(t, 2)}
			},
			check: func(t *testing.T, h *harness) {
				if s := h.brk.TelcoScore("h-telco"); s >= 1 {
					t.Fatalf("replay not penalized: score %v", s)
				}
			}},
		{name: "report: signed report arriving in MAC mode",
			build: func(t *testing.T, h *harness) *txItem {
				m := h.telcoMACStream(t)
				m.send(t, 3)
				return sealedReport(t, h, m.ref, billing.ReporterTelco, h.telco.Key, m.seq+1, 1)
			}},
		// One judge, one record (DESIGN.md §2.5): a pair is a pair by
		// (session, seq) and nothing else, settlement is what ingest
		// concluded, and a half that can no longer pair is not kept.
		{name: "report: bTelco claims 3x under seq + 1000, same Rel",
			build: func(t *testing.T, h *harness) *txItem {
				m := h.ueMACStream(t) // the UE's seq 1 is in
				pass := h.brk.cfg.Key.Pass(h.telco.Cert.Digest())
				sealer, err := pki.NewSealer(h.brk.Public())
				if err != nil {
					t.Fatal(err)
				}
				var skewed billing.Stream
				var env *billing.SealedReport
				for k := uint32(1); k <= 1000; k++ {
					if env != nil {
						if mm, err := h.brk.HandleReport(env); err != nil || mm != nil {
							t.Fatalf("skewed report %d: %v %v", k-1, mm, err)
						}
						m.send(t, 1)
					}
					r := &billing.Report{SessionRef: m.ref, Reporter: billing.ReporterTelco, Seq: 1000 + k,
						Rel: time.Duration(k) * 30 * time.Second, DLBytes: 3000 * uint64(k)}
					if env, err = skewed.Seal(r, h.telco.Key, sealer, &pass); err != nil {
						t.Fatal(err)
					}
				}
				return &txItem{kind: txReport, report: env}
			},
			check: func(t *testing.T, h *harness) {
				st, err := h.brk.SettleSession(h.macd.ref)
				if err != nil || st.VerifiedBytes != 0 || st.Amount != 0 || st.Disputed {
					t.Fatalf("a reporter that skews its sequence numbers was paired: %+v, %v", st, err)
				}
				if st.Unpaired != 8 { // billing's cap on a session's unpaired halves
					t.Fatalf("%d unpaired halves held after 1,000 unpairable reports a side, want the cap", st.Unpaired)
				}
				if e, ok := reputation(h.brk, "h-telco"); (ok && e != billing.ReputationEntry{Score: 1}) || len(h.brk.Mismatches()) != 0 {
					t.Fatalf("never paired, yet judged: %+v, %d mismatches", e, len(h.brk.Mismatches()))
				}
			}},
		{name: "report: same seq, Rel a whole cycle off",
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				h.macd = &macStream{ref: ref}
				h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
				return sealItem(t, h, &billing.Report{SessionRef: ref, Reporter: billing.ReporterTelco, Seq: 1,
					Rel: 60 * time.Second, DLBytes: 3_000_000}, h.telco.Key)
			},
			check: func(t *testing.T, h *harness) {
				// Paired, and judged on bytes: the UE's figure stands.
				st, err := h.brk.SettleSession(h.macd.ref)
				if err != nil || !st.Disputed || st.VerifiedBytes != 1_000_000 || len(h.brk.Mismatches()) != 1 {
					t.Fatalf("settlement %+v, %v, %d mismatches", st, err, len(h.brk.Mismatches()))
				}
			}},
		{name: "report: UE half whose partner was refused as a replay",
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				h.macd = &macStream{ref: ref}
				h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
				h.report(t, billing.ReporterTelco, h.telco.Key, ref, 2, 2_000_000)
				late := sealedReport(t, h, ref, billing.ReporterTelco, h.telco.Key, 1, 1_000_000)
				if _, err := h.brk.HandleReport(late.report); !errors.Is(err, billing.ErrReplayedReport) {
					t.Fatalf("the bTelco's seq 1 after its seq 2: %v", err)
				}
				return sealedReport(t, h, ref, billing.ReporterUE, h.ueKey, 2, 2_000_000)
			},
			check: func(t *testing.T, h *harness) {
				st, err := h.brk.SettleSession(h.macd.ref)
				if err != nil || st.Unpaired != 0 || st.VerifiedBytes != 2_000_000 || st.Disputed {
					t.Fatalf("after the next pair completed: %+v, %v", st, err)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t)
			out := submit(h, c.build(t, h))
			if !errors.Is(out.err, c.wantErr) || (c.wantErr == nil && out.err != nil) {
				t.Fatalf("err = %v, want %v", out.err, c.wantErr)
			}
			if c.wantCause != "" {
				granted, cause := true, ""
				if out.resp != nil {
					granted, cause = out.resp.Granted, out.resp.Cause
				}
				if granted || !strings.Contains(cause, c.wantCause) {
					t.Fatalf("outcome %s, want a denial with %q", verdict(out), c.wantCause)
				}
			}
			if c.check != nil {
				c.check(t, h)
			}
		})
	}
}

// broker_attach_granted_total counts grants only; a protocol denial
// (policy, replayed nonce) is a denial.
func TestAttachCountersSplitGrantsFromDenials(t *testing.T) {
	h := newHarness(t)
	granted, denied := mtr.attachGranted.Value(), mtr.attachDenied.Value()
	req := authReq(t, h)
	for i, wantCause := range []string{"", "replayed nonce", "price"} {
		if i == 2 {
			h.brk.cfg.MaxPricePerGB = 1.0 // the telco advertises 1.5
			req = authReq(t, h)
		}
		out := submit(h, &txItem{kind: txAuth, auth: req})
		if out.err != nil || out.resp.Granted != (wantCause == "") || !strings.Contains(out.resp.Cause, wantCause) {
			t.Fatalf("delivery %d: %s, want cause %q", i, verdict(out), wantCause)
		}
	}
	if g, d := mtr.attachGranted.Value()-granted, mtr.attachDenied.Value()-denied; g != 1 || d != 2 {
		t.Fatalf("granted +%d denied +%d, want +1/+2", g, d)
	}
}

// --- report items ---

// sealItem seals r for the harness broker as a report item.
func sealItem(t *testing.T, h *harness, r *billing.Report, signer *pki.KeyPair) *txItem {
	t.Helper()
	env, err := billing.Seal(r, signer, h.brk.Public())
	if err != nil {
		t.Fatal(err)
	}
	return &txItem{kind: txReport, report: env}
}

// sealedReport is sealItem over the report shape harness.report sends.
func sealedReport(t *testing.T, h *harness, ref string, rep billing.Reporter, signer *pki.KeyPair, seq uint32, dl uint64) *txItem {
	t.Helper()
	return sealItem(t, h, &billing.Report{SessionRef: ref, Reporter: rep, Seq: seq,
		Rel: time.Duration(seq) * 30 * time.Second, DLBytes: dl}, signer)
}

// The quarantine review runs after every ingest, so a score that dips
// under EnterBelow and climbs back quarantines — a review that ran once
// after a run of reports would see only the recovered score.
func TestQuarantineReviewedPerReport(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableQuarantine(QuarantineConfig{}, func() time.Duration { return 0 })
	_, ref := h.attach(t)
	// Alpha 0.1: four brazen inflations take the score to 0.9^4 = 0.656,
	// under the 0.7 entry line; two honest pairs bring it back to 0.721.
	for seq := uint32(1); seq <= 6; seq++ {
		telcoDL := uint64(5_000_000)
		if seq > 4 {
			telcoDL = 1_000_000
		}
		for _, in := range []*txItem{
			sealedReport(t, h, ref, billing.ReporterUE, h.ueKey, seq, 1_000_000),
			sealedReport(t, h, ref, billing.ReporterTelco, h.telco.Key, seq, telcoDL),
		} {
			if out := submit(h, in); out.err != nil {
				t.Fatalf("report seq %d: %v", seq, out.err)
			}
		}
	}
	if s := h.brk.TelcoScore("h-telco"); s < 0.7 {
		t.Fatalf("setup: score %.3f did not recover above the entry line", s)
	}
	if !h.brk.Quarantined("h-telco") {
		t.Fatal("a dip under EnterBelow between reports did not quarantine")
	}
}

// --- snapshot v2: quarantine round-trip ---

func TestSnapshotRoundTripsQuarantine(t *testing.T) {
	h := newHarness(t)
	var now time.Duration
	h.brk.EnableQuarantine(QuarantineConfig{}, func() time.Duration { return now })
	_, ref := h.attach(t)
	for seq := uint32(1); seq <= 10; seq++ {
		h.report(t, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000)
		h.report(t, billing.ReporterTelco, h.telco.Key, ref, seq, 5_000_000)
	}
	if !h.brk.Quarantined("h-telco") {
		t.Fatal("setup: bTelco not quarantined")
	}
	entry, _ := h.brk.QuarantineInfo("h-telco")

	snap := h.brk.Snapshot()
	fresh, err := Restart(restartConfig(h), snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Restore ran before EnableQuarantine: enabling must keep the entries.
	fresh.EnableQuarantine(QuarantineConfig{}, func() time.Duration { return now })
	if !fresh.Quarantined("h-telco") {
		t.Fatal("quarantine lost across restart")
	}
	got, ok := fresh.QuarantineInfo("h-telco")
	if !ok || got != entry {
		t.Fatalf("restored entry %+v != %+v", got, entry)
	}
	// And the block actually holds: attach through the restored broker.
	h.brk = fresh
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	resp, err := fresh.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("quarantined bTelco granted after restart")
	}
	// Past the window the trial tier applies, exactly as pre-restart.
	now = entry.Until + time.Second
	reqU2, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT2, _ := h.telco.ForwardRequest(reqU2)
	resp2, err := fresh.HandleAuthRequest(reqT2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Granted {
		// The reputation gate (0.5) may still deny; either way it must
		// not be the quarantine veto.
		t.Logf("trial-phase attach granted (score recovered)")
	}
}

func restartConfig(h *harness) Config {
	bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{91}, 32))
	cfg := DefaultConfig("broker.h", bk, h.ca.Public())
	cfg.Now = func() time.Time { return h.now }
	return cfg
}

// The agreed price lives in the grant record and nowhere else: a restored
// session settles at it, whatever the restarted broker's own price gate.
func TestRestartKeepsAgreedPrice(t *testing.T) {
	h := newHarness(t)
	grant, _ := h.attach(t)
	settle := func() billing.Settlement {
		t.Helper()
		h.report(t, billing.ReporterUE, h.ueKey, grant.URef, 1, 2_000_000)
		h.report(t, billing.ReporterTelco, h.telco.Key, grant.URef, 1, 2_010_000)
		st, err := h.brk.SettleSession(grant.URef)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := settle()

	cfg := restartConfig(h)
	cfg.MaxPricePerGB = 1.0 // the session was agreed at 1.5/GB
	fresh, err := Restart(cfg, h.brk.Snapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.brk = fresh
	if after := settle(); after.Amount == 0 || after.Amount != before.Amount {
		t.Fatalf("settled %.9f after the restart, %.9f before", after.Amount, before.Amount)
	}
}
