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

// --- auth-decision cache ---

func TestAuthCacheHitOnRepeatAttach(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAuthCache(16)
	h.attach(t) // first evaluation: miss, stored
	h.attach(t) // same (idU, idT, terms): hit
	hits, misses, _ := h.brk.AuthCacheStats()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestAuthCacheInvalidatedByEvidence(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAuthCache(16)
	_, ref := h.attach(t)
	h.attach(t)
	_, _, invalsBefore := h.brk.AuthCacheStats()
	// A billing mismatch is reputation-relevant: the epoch must move.
	h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
	h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 9_000_000)
	_, _, invalsAfter := h.brk.AuthCacheStats()
	if invalsAfter <= invalsBefore {
		t.Fatal("mismatch evidence did not bump the cache epoch")
	}
	// The next attach re-evaluates against the damaged score.
	hitsBefore, _, _ := h.brk.AuthCacheStats()
	h.attach(t) // score dipped but still above the 0.5 gate after one incident
	hitsAfter, _, _ := h.brk.AuthCacheStats()
	if hitsAfter != hitsBefore {
		t.Fatal("stale cached grant served after evidence")
	}
}

func TestAuthCacheNeverCachesDenials(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAuthCache(16)
	_, ref := h.attach(t)
	// Tank the score below the 0.5 reputation gate.
	for seq := uint32(1); seq <= 10; seq++ {
		h.report(t, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000)
		h.report(t, billing.ReporterTelco, h.telco.Key, ref, seq, 5_000_000)
	}
	deny := func() {
		t.Helper()
		reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
		reqT, _ := h.telco.ForwardRequest(reqU)
		resp, err := h.brk.HandleAuthRequest(reqT)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Granted {
			t.Fatal("disreputable bTelco granted")
		}
	}
	deny()
	hits1, _, _ := h.brk.AuthCacheStats()
	deny() // must re-evaluate, not replay a cached verdict
	hits2, _, _ := h.brk.AuthCacheStats()
	if hits2 != hits1 {
		t.Fatal("denial was served from cache")
	}
}

func TestAuthCacheBypassedUnderCustomPolicy(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAuthCache(16)
	h.brk.SetPolicy(qos.DefaultParams(), PriceCap(2.0))
	h.attach(t)
	h.attach(t)
	hits, misses, _ := h.brk.AuthCacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("cache consulted under custom policy: hits=%d misses=%d", hits, misses)
	}
}

func TestAuthCacheFIFOEviction(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableAuthCache(1)
	h.attach(t)                    // price 1.5: miss, stored
	h.attach(t)                    // hit
	h.telco.Terms.PricePerGB = 1.6 // new fingerprint
	h.attach(t)                    // miss, stored, evicts the 1.5 entry
	h.telco.Terms.PricePerGB = 1.5
	h.attach(t) // miss again: it was evicted
	hits, misses, _ := h.brk.AuthCacheStats()
	if hits != 1 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3", hits, misses)
	}
}

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

// --- session resumption at the broker ---

// resumeTicket runs a full attach and returns the UE-side ticket plus the
// grant the serving bTelco holds.
func (h *harness) resumeTicket(t *testing.T) (*sap.ResumeSession, *sap.Grant) {
	t.Helper()
	grant, _ := h.attach(t)
	return &sap.ResumeSession{IDT: h.telco.IDT, URef: grant.URef, SS: grant.SS}, grant
}

func TestBrokerResumeFastPath(t *testing.T) {
	h := newHarness(t)
	tkt, grant := h.resumeTicket(t)
	req, err := tkt.NewResumeRequest()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.telco.ForwardResume(req, grant.SS); err != nil {
		t.Fatal(err)
	}
	resp, err := h.brk.HandleResume(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Fatalf("resume denied: %s", resp.Cause)
	}
	next, _, err := tkt.HandleResumeResponse(req, resp)
	if err != nil {
		t.Fatal(err)
	}
	// The successor grant is live broker state: recorded, price carried,
	// bound for billing.
	rec := h.brk.Grant(next.URef)
	if rec == nil || rec.IDT != h.telco.IDT {
		t.Fatalf("successor grant record = %+v", rec)
	}
	if h.brk.prices[next.URef] != h.brk.prices[grant.URef] {
		t.Fatal("resume changed the agreed price")
	}
	// QoS pinned to the original grant's params.
	if resp.Params != grant.Params {
		t.Fatalf("resume params %+v != original %+v", resp.Params, grant.Params)
	}
	// Billing works against the successor session.
	if m := h.report(t, billing.ReporterUE, h.ueKey, next.URef, 1, 1000); m != nil {
		t.Fatalf("honest report on resumed session flagged: %+v", m)
	}
}

func TestBrokerResumeSingleUse(t *testing.T) {
	h := newHarness(t)
	tkt, grant := h.resumeTicket(t)
	req, _ := tkt.NewResumeRequest()
	if err := h.telco.ForwardResume(req, grant.SS); err != nil {
		t.Fatal(err)
	}
	if resp, err := h.brk.HandleResume(req); err != nil || !resp.Granted {
		t.Fatalf("first resume: %v granted=%v", err, resp.Granted)
	}
	resp2, err := h.brk.HandleResume(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Granted || !strings.Contains(resp2.Cause, "already resumed") {
		t.Fatalf("replayed resume: granted=%v cause=%q", resp2.Granted, resp2.Cause)
	}
}

// entryShapes are the three ways one request reaches the broker
// transaction: the single-request handler, and a Batcher flush of that one
// item in serial and in batch mode.
var entryShapes = []struct {
	name   string
	submit func(h *harness, in *txItem) BatchOutcome
}{
	{"direct", func(h *harness, in *txItem) BatchOutcome {
		var out BatchOutcome
		switch in.kind {
		case txAuth:
			out.Auth, out.Err = h.brk.HandleAuthRequest(in.auth)
		case txResume:
			out.Resume, out.Err = h.brk.HandleResume(in.resume)
		case txReport:
			out.Mismatch, out.Err = h.brk.HandleReport(in.report)
		}
		return out
	}},
	{"serial batcher", func(h *harness, in *txItem) BatchOutcome { return flushOne(h.brk.NewBatcher(true), in) }},
	{"batch batcher", func(h *harness, in *txItem) BatchOutcome { return flushOne(h.brk.NewBatcher(false), in) }},
}

func flushOne(bat *Batcher, in *txItem) BatchOutcome {
	switch in.kind {
	case txAuth:
		bat.EnqueueAuth(in.auth)
	case txResume:
		bat.EnqueueResume(in.resume)
	case txReport:
		bat.EnqueueReport(in.report)
	}
	return bat.Flush()[0]
}

// brokerCounts holds every counter a transaction can move, and the
// batcher's two queue counters.
type brokerCounts struct {
	granted, denied, resumeGranted, resumeDenied uint64
	reports, mismatches, replays                 uint64
	batchItems, batchFlushes                     uint64
}

// countersSince reads the counters relative to an earlier reading.
func countersSince(base brokerCounts) brokerCounts {
	return brokerCounts{
		mtr.attachGranted.Value() - base.granted, mtr.attachDenied.Value() - base.denied,
		mtr.resumeGranted.Value() - base.resumeGranted, mtr.resumeDenied.Value() - base.resumeDenied,
		mtr.reports.Value() - base.reports, mtr.mismatches.Value() - base.mismatches, mtr.replays.Value() - base.replays,
		mtr.batchItems.Value() - base.batchItems, mtr.batchFlushes.Value() - base.batchFlushes,
	}
}

// errClass maps an outcome error to the sentinel it wraps (the full text
// embeds random session references).
func errClass(err error) error {
	for _, target := range []error{sap.ErrBadRequest, ErrBadReporterKey, ErrUnknownSession, billing.ErrReplayedReport} {
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
	case o.Resume != nil:
		return fmt.Sprintf("resume granted=%v cause=%q score=%v", o.Resume.Granted, o.Resume.Cause, o.Resume.TelcoScore)
	}
	return fmt.Sprintf("report mismatch=%v", o.Mismatch != nil)
}

// The adversarial inputs, each through all three entry shapes: the broker
// must reach the same verdict, cause, score and counters whichever way
// the request came in, and never panic.
func TestBrokerResumeDenyLadder(t *testing.T) {
	forwarded := func(t *testing.T, h *harness, tkt *sap.ResumeSession, ss [32]byte) *sap.ResumeReq {
		t.Helper()
		req, err := tkt.NewResumeRequest()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.telco.ForwardResume(req, ss); err != nil {
			t.Fatal(err)
		}
		return req
	}
	sealed := func(t *testing.T, h *harness, r *billing.Report, signer *pki.KeyPair) *txItem {
		t.Helper()
		env, err := billing.Seal(r, signer, h.brk.Public())
		if err != nil {
			t.Fatal(err)
		}
		return &txItem{kind: txReport, report: env}
	}
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
		{name: "resume: unknown reference", wantCause: "unknown session",
			build: func(t *testing.T, h *harness) *txItem {
				_, grant := h.resumeTicket(t)
				bogus := &sap.ResumeSession{IDT: h.telco.IDT, URef: "nope", SS: grant.SS}
				req, _ := bogus.NewResumeRequest()
				return &txItem{kind: txResume, resume: req}
			}},
		{name: "resume: wrong bTelco claims the session", wantCause: "identity mismatch",
			build: func(t *testing.T, h *harness) *txItem {
				tkt, _ := h.resumeTicket(t)
				req, _ := tkt.NewResumeRequest()
				req.IDT = "some-other-telco" // MACs sit below the identity check
				return &txItem{kind: txResume, resume: req}
			}},
		{name: "resume: reused reference", wantCause: "already resumed",
			build: func(t *testing.T, h *harness) *txItem {
				tkt, grant := h.resumeTicket(t)
				if resp, err := h.brk.HandleResume(forwarded(t, h, tkt, grant.SS)); err != nil || !resp.Granted {
					t.Fatalf("first resume: %v %+v", err, resp)
				}
				return &txItem{kind: txResume, resume: forwarded(t, h, tkt, grant.SS)}
			}},
		{name: "resume: bad MAC", wantCause: "MAC invalid",
			build: func(t *testing.T, h *harness) *txItem {
				tkt, grant := h.resumeTicket(t)
				req := forwarded(t, h, tkt, grant.SS)
				req.MACT[0] ^= 1
				return &txItem{kind: txResume, resume: req}
			}},
		{name: "resume: policy re-runs", wantCause: "authorization denied",
			build: func(t *testing.T, h *harness) *txItem {
				tkt, grant := h.resumeTicket(t)
				tankScore(t, h, grant.URef)
				return &txItem{kind: txResume, resume: forwarded(t, h, tkt, grant.SS)}
			}},
		{name: "resume: nil", wantErr: sap.ErrBadRequest,
			build: func(t *testing.T, h *harness) *txItem { return &txItem{kind: txResume} }},
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
				return sealed(t, h, &billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1, DLBytes: 1}, h.telco.Key)
			}},
		{name: "report: unknown session", wantErr: ErrUnknownSession,
			build: func(t *testing.T, h *harness) *txItem {
				h.attach(t)
				return sealed(t, h, &billing.Report{SessionRef: "bogus", Reporter: billing.ReporterUE, Seq: 1}, h.ueKey)
			}},
		{name: "report: replayed seq", wantErr: billing.ErrReplayedReport,
			build: func(t *testing.T, h *harness) *txItem {
				_, ref := h.attach(t)
				h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
				h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 1_000_000)
				stale := &billing.Report{SessionRef: ref, Reporter: billing.ReporterTelco, Seq: 1, Rel: 30 * time.Second, DLBytes: 1_000_000}
				return sealed(t, h, stale, h.telco.Key)
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
				return sealed(t, h, r, h.ueKey)
			},
			check: func(t *testing.T, h *harness) {
				if got := h.brk.QoSViolations("h-telco"); got != 1 {
					t.Fatalf("QoS violations = %d, want 1", got)
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
					} else if out.Resume != nil {
						granted, cause = out.Resume.Granted, out.Resume.Cause
					}
					if granted || !strings.Contains(cause, c.wantCause) {
						t.Fatalf("%s: outcome %s, want a denial with %q", shape.name, verdict(out), c.wantCause)
					}
				}
				if c.check != nil {
					c.check(t, h)
				}
				// Only the batcher's own queue counters may tell the
				// shapes apart; the direct handler must not touch them.
				wantQueue := uint64(1)
				if shape.name == "direct" {
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

func TestBrokerResumeReRunsPolicy(t *testing.T) {
	h := newHarness(t)
	tkt, grant := h.resumeTicket(t)
	ref := grant.URef
	// Tank the score below the reputation gate after the grant.
	for seq := uint32(1); seq <= 10; seq++ {
		h.report(t, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000)
		h.report(t, billing.ReporterTelco, h.telco.Key, ref, seq, 5_000_000)
	}
	req, _ := tkt.NewResumeRequest()
	if err := h.telco.ForwardResume(req, grant.SS); err != nil {
		t.Fatal(err)
	}
	resp, err := h.brk.HandleResume(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("resume granted through a bTelco a full attach would refuse")
	}
	if !strings.Contains(resp.Cause, "authorization denied") {
		t.Fatalf("cause = %q", resp.Cause)
	}
}

func TestBrokerResumeRespectsShedding(t *testing.T) {
	h := newHarness(t)
	tkt, grant := h.resumeTicket(t)
	h.brk.ShedLoad(3 * time.Second)
	req, _ := tkt.NewResumeRequest()
	if err := h.telco.ForwardResume(req, grant.SS); err != nil {
		t.Fatal(err)
	}
	_, err := h.brk.HandleResume(req)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 3*time.Second {
		t.Fatalf("degraded resume err=%v, want 3s hint", err)
	}
}

// --- batcher: serial vs pipelined equivalence ---

// stormMix enqueues an identical control-plane mix into bat against the
// harness's broker: full attaches, a resume (with its replay), honest and
// inflated report pairs for the pre-existing session ref.
func stormMix(t *testing.T, h *harness, bat *Batcher, ref string, tkt *sap.ResumeSession, grantSS [32]byte) {
	t.Helper()
	for i := 0; i < 3; i++ {
		reqU, _, err := h.ue.NewAttachRequest(h.telco.IDT)
		if err != nil {
			t.Fatal(err)
		}
		reqT, err := h.telco.ForwardRequest(reqU)
		if err != nil {
			t.Fatal(err)
		}
		bat.EnqueueAuth(reqT)
	}
	res, err := tkt.NewResumeRequest()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.telco.ForwardResume(res, grantSS); err != nil {
		t.Fatal(err)
	}
	bat.EnqueueResume(res)
	res2, _ := tkt.NewResumeRequest()
	if err := h.telco.ForwardResume(res2, grantSS); err != nil {
		t.Fatal(err)
	}
	bat.EnqueueResume(res2) // same uref: must be refused as already resumed
	seal := func(rep billing.Reporter, signer *pki.KeyPair, seq uint32, dl uint64) {
		r := &billing.Report{SessionRef: ref, Reporter: rep, Seq: seq,
			Rel: time.Duration(seq) * 30 * time.Second, DLBytes: dl}
		env, err := billing.Seal(r, signer, h.brk.Public())
		if err != nil {
			t.Fatal(err)
		}
		bat.EnqueueReport(env)
	}
	seal(billing.ReporterUE, h.ueKey, 1, 1_000_000)
	seal(billing.ReporterTelco, h.telco.Key, 1, 1_005_000) // honest pair
	seal(billing.ReporterUE, h.ueKey, 2, 1_000_000)
	seal(billing.ReporterTelco, h.telco.Key, 2, 9_000_000) // inflation
	// The adversarial inputs of TestBrokerResumeDenyLadder inside a window:
	// an unknown session, a UE report forged under the telco's key, a
	// replayed sequence number, and nil requests error identically in both
	// modes.
	r := &billing.Report{SessionRef: "bogus", Reporter: billing.ReporterUE, Seq: 1}
	env, _ := billing.Seal(r, h.ueKey, h.brk.Public())
	bat.EnqueueReport(env)
	seal(billing.ReporterUE, h.telco.Key, 3, 1_000_000)
	seal(billing.ReporterTelco, h.telco.Key, 1, 1_005_000)
	bat.EnqueueAuth(nil)
	bat.EnqueueResume(nil)
}

func TestBatcherSerialAndPipelinedAgree(t *testing.T) {
	// Two harnesses built from identical seeds hold identical broker
	// state; run the same mix through the serial baseline on one and the
	// pipelined transaction on the other and compare every decision.
	hs, hb := newHarness(t), newHarness(t)
	tktS, grantS := hs.resumeTicket(t)
	tktB, grantB := hb.resumeTicket(t)

	batS := hs.brk.NewBatcher(true)
	batB := hb.brk.NewBatcher(false)
	hb.brk.EnableAuthCache(64) // the optimized config the storm uses
	stormMix(t, hs, batS, grantS.URef, tktS, grantS.SS)
	stormMix(t, hb, batB, grantB.URef, tktB, grantB.SS)
	if d := batS.Depth(); d != 14 || batB.Depth() != d {
		t.Fatalf("depths %d/%d", batS.Depth(), batB.Depth())
	}

	outS := batS.Flush()
	outB := batB.Flush()
	if len(outS) != len(outB) {
		t.Fatalf("outcome counts %d != %d", len(outS), len(outB))
	}
	for i := range outS {
		s, b := outS[i], outB[i]
		if errClass(s.Err) != errClass(b.Err) {
			t.Fatalf("item %d: err %v vs %v", i, s.Err, b.Err)
		}
		if (s.Auth == nil) != (b.Auth == nil) || (s.Resume == nil) != (b.Resume == nil) ||
			(s.Mismatch == nil) != (b.Mismatch == nil) {
			t.Fatalf("item %d: outcome shape differs: %+v vs %+v", i, s, b)
		}
		if s.Auth != nil && (s.Auth.Granted != b.Auth.Granted || s.Auth.Cause != b.Auth.Cause ||
			s.Auth.TelcoScore != b.Auth.TelcoScore) {
			t.Fatalf("item %d: auth verdicts differ: %+v vs %+v", i, s.Auth, b.Auth)
		}
		if s.Resume != nil && (s.Resume.Granted != b.Resume.Granted || s.Resume.Cause != b.Resume.Cause ||
			s.Resume.Params != b.Resume.Params) {
			t.Fatalf("item %d: resume verdicts differ: %+v vs %+v", i, s.Resume, b.Resume)
		}
	}
	if fS, fB := hs.brk.TelcoScore("h-telco"), hb.brk.TelcoScore("h-telco"); fS != fB {
		t.Fatalf("post-flush scores diverge: %v vs %v", fS, fB)
	}
	flushes, items := batB.Stats()
	if flushes != 1 || items != 14 {
		t.Fatalf("stats = %d flushes / %d items", flushes, items)
	}
	// Both flushed queues drain.
	if batS.Depth() != 0 || batB.Depth() != 0 {
		t.Fatal("flush left a backlog")
	}
}

func TestBatcherGrantedAuthUsableByUE(t *testing.T) {
	h := newHarness(t)
	bat := h.brk.NewBatcher(false)
	h.brk.EnableAuthCache(64)
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

// --- snapshot v2: quarantine round-trip, cache hygiene ---

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

func TestRestoreClearsAuthCache(t *testing.T) {
	// h1's cache holds a valid grant for (user, h-telco, terms). h2 — an
	// identically seeded broker — accumulates reputation damage that gates
	// that same attach. Restoring h2's snapshot into h1 must not leave the
	// pre-restore grant servable.
	h1, h2 := newHarness(t), newHarness(t)
	h1.brk.EnableAuthCache(16)
	h1.attach(t)
	h1.attach(t)
	if hits, _, _ := h1.brk.AuthCacheStats(); hits != 1 {
		t.Fatalf("setup: hits=%d", hits)
	}

	_, ref := h2.attach(t)
	for seq := uint32(1); seq <= 10; seq++ {
		h2.report(t, billing.ReporterUE, h2.ueKey, ref, seq, 1_000_000)
		h2.report(t, billing.ReporterTelco, h2.telco.Key, ref, seq, 5_000_000)
	}
	if s := h2.brk.TelcoScore("h-telco"); s >= 0.5 {
		t.Fatalf("setup: score %.2f above gate", s)
	}

	if err := h1.brk.Restore(h2.brk.Snapshot()); err != nil {
		t.Fatal(err)
	}
	reqU, _, _ := h1.ue.NewAttachRequest(h1.telco.IDT)
	reqT, _ := h1.telco.ForwardRequest(reqU)
	resp, err := h1.brk.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("stale cached grant survived Restore")
	}
}

func TestSnapshotV1StillRestores(t *testing.T) {
	// A v1 snapshot is a v2 snapshot minus the trailing quarantine section.
	h := newHarness(t)
	_, ref := h.attach(t)
	h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 500)
	snap := h.brk.Snapshot()
	// Strip the (empty) quarantine section: a u32 zero at the tail.
	if len(snap) < 4 || snap[len(snap)-4] != 0 {
		t.Fatalf("unexpected tail %x", snap[len(snap)-4:])
	}
	v1 := append([]byte(nil), snap[:len(snap)-4]...)
	v1[0] = 1
	fresh, err := Restart(restartConfig(h), v1, 0)
	if err != nil {
		t.Fatalf("v1 restore: %v", err)
	}
	if fresh.Grant(ref) == nil {
		t.Fatal("v1 restore lost the grant")
	}
}
