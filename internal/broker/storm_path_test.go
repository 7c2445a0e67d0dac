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
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// --- admission control ---

func TestAdmissionRateGate(t *testing.T) {
	h := newHarness(t)
	var now time.Duration
	h.brk.EnableAdmission(AdmissionConfig{Rate: 1, Burst: 2, RetryAfter: 500 * time.Millisecond},
		func() time.Duration { return now })
	if err := h.brk.AdmitAttach(0); err != nil {
		t.Fatal(err)
	}
	if err := h.brk.AdmitAttach(0); err != nil {
		t.Fatal(err)
	}
	err := h.brk.AdmitAttach(0) // bucket drained
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 500*time.Millisecond {
		t.Fatalf("err=%v, want typed 500ms hint", err)
	}
	now += time.Second // refills one token
	if err := h.brk.AdmitAttach(0); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
	admitted, rateSheds, queueSheds := h.brk.AdmissionStats()
	if admitted != 3 || rateSheds != 1 || queueSheds != 0 {
		t.Fatalf("stats = %d/%d/%d", admitted, rateSheds, queueSheds)
	}
}

func TestAdmissionQueueGateDoublesHint(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAdmission(AdmissionConfig{Rate: 1000, Burst: 1000, MaxQueue: 4, RetryAfter: time.Second},
		func() time.Duration { return 0 })
	if err := h.brk.AdmitAttach(3); err != nil {
		t.Fatal(err)
	}
	err := h.brk.AdmitAttach(4)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 2*time.Second {
		t.Fatalf("err=%v, want doubled 2s hint", err)
	}
	// The queue gate outranks available tokens.
	_, _, queueSheds := h.brk.AdmissionStats()
	if queueSheds != 1 {
		t.Fatalf("queueSheds=%d", queueSheds)
	}
}

func TestAdmissionGatesAttachPath(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAdmission(AdmissionConfig{Rate: 1, Burst: 1}, func() time.Duration { return 0 })
	h.attach(t) // consumes the only token
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	_, err := h.brk.HandleAuthRequest(reqT)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("second attach err=%v, want retry-after", err)
	}
}

// entryShapes are the two ways one request reaches the broker
// transaction: the single-request handler, and a Batcher flush of that one
// item.
var entryShapes = []struct {
	name   string
	submit func(h *harness, in *txItem) BatchOutcome
}{
	{"handler", func(h *harness, in *txItem) BatchOutcome {
		var out BatchOutcome
		switch in.kind {
		case txAuth:
			out.Auth, out.Err = h.brk.HandleAuthRequest(in.auth)
		case txReport:
			out.Mismatch, out.Err = h.brk.HandleReport(in.report)
		}
		return out
	}},
	{"batcher", func(h *harness, in *txItem) BatchOutcome {
		bat := h.brk.NewBatcher()
		enqueue(bat, in)
		return bat.Flush()[0]
	}},
}

func enqueue(bat *Batcher, in *txItem) {
	switch in.kind {
	case txAuth:
		bat.EnqueueAuth(in.auth)
	case txReport:
		bat.EnqueueReport(in.report)
	}
}

// brokerCounts holds every counter a transaction can move, and the
// batcher's two queue counters.
type brokerCounts struct {
	granted, denied                       uint64
	reports, mismatches, replays          uint64
	macd, checkpoints, checkpointsRefused uint64
	batchItems, batchFlushes              uint64
}

// countersSince reads the counters relative to an earlier reading.
func countersSince(base brokerCounts) brokerCounts {
	return brokerCounts{
		mtr.attachGranted.Value() - base.granted, mtr.attachDenied.Value() - base.denied,
		mtr.reports.Value() - base.reports, mtr.mismatches.Value() - base.mismatches, mtr.replays.Value() - base.replays,
		mtr.reportsMACd.Value() - base.macd, mtr.checkpointsVerified.Value() - base.checkpoints, mtr.checkpointsRefused.Value() - base.checkpointsRefused,
		mtr.batchItems.Value() - base.batchItems, mtr.batchFlushes.Value() - base.batchFlushes,
	}
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
func verdict(o BatchOutcome) string {
	switch {
	case o.Err != nil:
		return "err: " + errClass(o.Err).Error()
	case o.Auth != nil:
		return fmt.Sprintf("auth granted=%v cause=%q score=%v", o.Auth.Granted, o.Auth.Cause, o.Auth.TelcoScore)
	}
	return fmt.Sprintf("report mismatch=%v", o.Mismatch != nil)
}

// The adversarial inputs, each through both entry shapes: the broker
// must reach the same verdict, cause, score and counters whichever way
// the request came in, and never panic. (The name is from when a third of
// the rows were the HMAC resume's; that protocol is gone from the broker.)
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
				if got := h.brk.qosViolations["h-telco"]; got != 1 {
					t.Fatalf("QoS violations = %d, want 1", got)
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
				if e, ok := h.brk.verifier.Reputations()["h-telco"]; (ok && e != billing.ReputationEntry{Score: 1}) || len(h.brk.Mismatches()) != 0 {
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
			var first string
			for _, shape := range entryShapes {
				h := newHarness(t)
				in := c.build(t, h)
				before := countersSince(brokerCounts{})
				out := shape.submit(h, in)
				delta := countersSince(before)

				if !errors.Is(out.Err, c.wantErr) || (c.wantErr == nil && out.Err != nil) {
					t.Fatalf("%s: err = %v, want %v", shape.name, out.Err, c.wantErr)
				}
				if c.wantCause != "" {
					granted, cause := true, ""
					if out.Auth != nil {
						granted, cause = out.Auth.Granted, out.Auth.Cause
					}
					if granted || !strings.Contains(cause, c.wantCause) {
						t.Fatalf("%s: outcome %s, want a denial with %q", shape.name, verdict(out), c.wantCause)
					}
				}
				if c.check != nil {
					c.check(t, h)
				}
				// Only the batcher's own queue counters may tell the
				// shapes apart; the handler must not touch them.
				wantQueue := uint64(1)
				if shape.name == "handler" {
					wantQueue = 0
				}
				if delta.batchItems != wantQueue || delta.batchFlushes != wantQueue {
					t.Fatalf("%s: batch items/flushes moved by %d/%d", shape.name, delta.batchItems, delta.batchFlushes)
				}
				delta.batchItems, delta.batchFlushes = 0, 0
				got := fmt.Sprintf("%s | broker score %v | counters %+v", verdict(out), h.brk.TelcoScore("h-telco"), delta)
				if first == "" {
					first = got
				} else if got != first {
					t.Fatalf("%s disagrees with %s:\n  %s\n  %s", shape.name, entryShapes[0].name, got, first)
				}
			}
		})
	}
}

// broker_attach_granted_total counts grants only; a protocol denial
// (policy, replayed nonce) is a denial, whichever way the request came in.
func TestAttachCountersSplitGrantsFromDenials(t *testing.T) {
	for _, shape := range entryShapes {
		h := newHarness(t)
		before := countersSince(brokerCounts{})
		req := authReq(t, h)
		for i, wantCause := range []string{"", "replayed nonce", "price"} {
			if i == 2 {
				h.brk.cfg.MaxPricePerGB = 1.0 // the telco advertises 1.5
				req = authReq(t, h)
			}
			out := shape.submit(h, &txItem{kind: txAuth, auth: req})
			if out.Err != nil || out.Auth.Granted != (wantCause == "") || !strings.Contains(out.Auth.Cause, wantCause) {
				t.Fatalf("%s delivery %d: %s, want cause %q", shape.name, i, verdict(out), wantCause)
			}
		}
		if delta := countersSince(before); delta.granted != 1 || delta.denied != 2 {
			t.Fatalf("%s: granted +%d denied +%d, want +1/+2", shape.name, delta.granted, delta.denied)
		}
	}
}

// --- batcher: a queue in front of the handlers ---

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

// stormMix builds a control-plane mix against the harness's broker: full
// attaches, one of them delivered twice, honest and inflated report pairs
// for the pre-existing session ref.
func stormMix(t *testing.T, h *harness, ref string) []*txItem {
	t.Helper()
	var mix []*txItem
	for i := 0; i < 3; i++ {
		mix = append(mix, &txItem{kind: txAuth, auth: authReq(t, h)})
	}
	twice := authReq(t, h) // the second delivery must be refused as a replayed nonce
	mix = append(mix, &txItem{kind: txAuth, auth: twice}, &txItem{kind: txAuth, auth: twice})
	mix = append(mix,
		sealedReport(t, h, ref, billing.ReporterUE, h.ueKey, 1, 1_000_000),
		sealedReport(t, h, ref, billing.ReporterTelco, h.telco.Key, 1, 1_005_000), // honest pair
		sealedReport(t, h, ref, billing.ReporterUE, h.ueKey, 2, 1_000_000),
		sealedReport(t, h, ref, billing.ReporterTelco, h.telco.Key, 2, 9_000_000), // inflation
		// The adversarial inputs of TestBrokerResumeDenyLadder inside one
		// flush: an unknown session, a UE report forged under the telco's
		// key, a replayed sequence number, and nil requests.
		sealedReport(t, h, "bogus", billing.ReporterUE, h.ueKey, 1, 0),
		sealedReport(t, h, ref, billing.ReporterUE, h.telco.Key, 3, 1_000_000),
		sealedReport(t, h, ref, billing.ReporterTelco, h.telco.Key, 1, 1_005_000),
		&txItem{kind: txAuth},
		&txItem{kind: txReport},
	)
	return mix
}

// A Batcher flush is the handlers, later: the same mix gets the same
// verdicts either way. (The name is from when there were two drivers.)
func TestBatcherSerialAndPipelinedAgree(t *testing.T) {
	// Two harnesses built from identical seeds hold identical broker
	// state; run the same mix through the single-request handlers on one
	// and through one Batcher flush on the other and compare every
	// decision.
	hh, hb := newHarness(t), newHarness(t)
	_, refH := hh.attach(t)
	_, refB := hb.attach(t)

	var outH []BatchOutcome
	for _, in := range stormMix(t, hh, refH) {
		outH = append(outH, entryShapes[0].submit(hh, in))
	}
	bat := hb.brk.NewBatcher()
	for _, in := range stormMix(t, hb, refB) {
		enqueue(bat, in)
	}
	if d := bat.Depth(); d != 14 {
		t.Fatalf("depth %d, want 14", d)
	}
	outB := bat.Flush()
	if len(outH) != len(outB) {
		t.Fatalf("outcome counts %d != %d", len(outH), len(outB))
	}
	for i := range outH {
		if vh, vb := verdict(outH[i]), verdict(outB[i]); vh != vb {
			t.Fatalf("item %d: handler %s, batcher %s", i, vh, vb)
		}
	}
	if fH, fB := hh.brk.TelcoScore("h-telco"), hb.brk.TelcoScore("h-telco"); fH != fB {
		t.Fatalf("post-flush scores diverge: %v vs %v", fH, fB)
	}
	if flushes, items := bat.Stats(); flushes != 1 || items != 14 {
		t.Fatalf("stats = %d flushes / %d items", flushes, items)
	}
	if bat.Depth() != 0 {
		t.Fatal("flush left a backlog")
	}
}

// The quarantine review runs after every ingest, so a score that dips
// under EnterBelow and climbs back inside one flush still quarantines — a
// flush that reviewed once at its end would see only the recovered score.
func TestBatcherReviewsQuarantinePerItem(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableQuarantine(QuarantineConfig{}, func() time.Duration { return 0 })
	_, ref := h.attach(t)
	bat := h.brk.NewBatcher()
	// Alpha 0.1: four brazen inflations take the score to 0.9^4 = 0.656,
	// under the 0.7 entry line; two honest pairs bring it back to 0.721.
	for seq := uint32(1); seq <= 6; seq++ {
		telcoDL := uint64(5_000_000)
		if seq > 4 {
			telcoDL = 1_000_000
		}
		enqueue(bat, sealedReport(t, h, ref, billing.ReporterUE, h.ueKey, seq, 1_000_000))
		enqueue(bat, sealedReport(t, h, ref, billing.ReporterTelco, h.telco.Key, seq, telcoDL))
	}
	for i, out := range bat.Flush() {
		if out.Err != nil {
			t.Fatalf("report %d: %v", i, out.Err)
		}
	}
	if s := h.brk.TelcoScore("h-telco"); s < 0.7 {
		t.Fatalf("setup: score %.3f did not recover above the entry line", s)
	}
	if !h.brk.Quarantined("h-telco") {
		t.Fatal("a dip under EnterBelow inside one flush did not quarantine")
	}
}

// A flush is no atomicity boundary: a report naming the session granted
// one item earlier in the same flush is ingested like any other. Its UE
// cannot know the reference before the flush answers, so the report is
// written at the first instant after that grant committed — inside the
// admission decision of the next item.
func TestBatcherReportNamesSessionGrantedInSameFlush(t *testing.T) {
	h := newHarness(t)
	report := &billing.SealedReport{}
	h.brk.sap.Policy = sap.AuthorizerFunc(func(_, _ string, terms sap.ServiceTerms) (qos.Params, error) {
		for ref := range h.brk.grants { // b.mu is held: one grant so far
			env, err := billing.Seal(&billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1, DLBytes: 1000}, h.ueKey, h.brk.Public())
			if err != nil {
				t.Fatal(err)
			}
			*report = *env
		}
		return qos.DefaultParams().Clamp(terms.Cap), nil
	})
	bat := h.brk.NewBatcher()
	bat.EnqueueAuth(authReq(t, h))
	bat.EnqueueAuth(authReq(t, h))
	bat.EnqueueReport(report)
	outs := bat.Flush()
	if outs[0].Err != nil || !outs[0].Auth.Granted || !outs[1].Auth.Granted {
		t.Fatalf("attaches: %s, %s", verdict(outs[0]), verdict(outs[1]))
	}
	if outs[2].Err != nil {
		t.Fatalf("report on the session granted earlier in the flush: %v", outs[2].Err)
	}
}

func TestBatcherGrantedAuthUsableByUE(t *testing.T) {
	h := newHarness(t)
	bat := h.brk.NewBatcher()
	reqU, pending, err := h.ue.NewAttachRequest(h.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := h.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	bat.EnqueueAuth(reqT)
	out := bat.Flush()
	if len(out) != 1 || out[0].Err != nil || out[0].Auth == nil || !out[0].Auth.Granted {
		t.Fatalf("batched auth outcome = %+v", out)
	}
	// The sealed+signed response survives the full client-side checks.
	grant, respU, err := h.telco.HandleResponse(h.brk.Public(), out[0].Auth)
	if err != nil {
		t.Fatal(err)
	}
	ss, uref, err := h.ue.HandleResponse(pending, respU)
	if err != nil {
		t.Fatal(err)
	}
	if uref != grant.URef || ss != grant.SS {
		t.Fatal("batched grant disagrees between UE and bTelco")
	}
	if h.brk.Grant(uref) == nil {
		t.Fatal("batched grant not recorded")
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
