package broker

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
)

// harness wires a brokerd with one registered user and one certified
// bTelco, exposing raw SAP plumbing for adversarial tests.
type harness struct {
	brk   *Brokerd
	ca    *pki.CA
	ue    *sap.UEState
	ueKey *pki.KeyPair
	telco *sap.TelcoState
	now   time.Time

	ueSealer *pki.Sealer // the last attach's exchange, for that session's UE reports
	macd     *macStream  // the reporter a "report:" ladder row is about, for its check
}

// macStream is one reporter of the harness in MAC mode (DESIGN.md §2.10): a
// billing.Stream with the key the broker derives for it, reporting on one
// session with a Seq of its own.
type macStream struct {
	h      *harness
	stream billing.Stream
	signer *pki.KeyPair
	sealer *pki.Sealer
	mac    pki.Ticket
	rep    billing.Reporter
	ref    string
	seq    uint32
}

// ueMACStream attaches a second time — the first grant armed a ticket — and
// returns the UE's stream on that session, its signed first report sent.
func (h *harness) ueMACStream(t *testing.T) *macStream {
	t.Helper()
	h.attach(t)
	_, ref := h.attach(t)
	mac, ticketed := h.ueSealer.MACKey()
	if !ticketed {
		t.Fatal("the attach after a grant is not ticketed")
	}
	return h.started(t, &macStream{h: h, signer: h.ueKey, sealer: h.ueSealer, mac: mac, rep: billing.ReporterUE, ref: ref})
}

// telcoMACStream attaches and returns a stream of the harness bTelco under
// the broker's pass for its certificate, its signed first report sent.
func (h *harness) telcoMACStream(t *testing.T) *macStream {
	t.Helper()
	_, ref := h.attach(t)
	sealer, err := pki.NewSealer(h.brk.Public())
	if err != nil {
		t.Fatal(err)
	}
	return h.started(t, &macStream{h: h, signer: h.telco.Key, sealer: sealer, mac: h.brk.cfg.Key.Pass(h.telco.Cert.Digest()),
		rep: billing.ReporterTelco, ref: ref})
}

func (h *harness) started(t *testing.T, m *macStream) *macStream {
	t.Helper()
	if env := m.next(t); len(env.Sig) != 64 {
		t.Fatalf("a stream's first report carries a %d-byte Sig", len(env.Sig))
	} else if _, err := h.brk.HandleReport(env); err != nil {
		t.Fatal(err)
	}
	h.macd = m
	return m
}

// next seals the stream's next report.
func (m *macStream) next(t *testing.T) *billing.SealedReport {
	t.Helper()
	m.seq++
	env, err := m.stream.Seal(&billing.Report{SessionRef: m.ref, Reporter: m.rep, Seq: m.seq,
		Rel: time.Duration(m.seq) * 30 * time.Second, DLBytes: 1000 * uint64(m.seq)}, m.signer, m.sealer, &m.mac)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// send ingests the next n reports, which the broker must accept, and
// returns the last envelope.
func (m *macStream) send(t *testing.T, n int) (last *billing.SealedReport) {
	t.Helper()
	for i := 0; i < n; i++ {
		last = m.next(t)
		if _, err := m.h.brk.HandleReport(last); err != nil {
			t.Fatalf("report %d of %d: %v", i+1, n, err)
		}
	}
	return last
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	now := time.Unix(1_760_000_000, 0)
	ca, err := pki.NewCAFromSeed("h-ca", bytes.Repeat([]byte{90}, 32))
	if err != nil {
		t.Fatal(err)
	}
	bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{91}, 32))
	cfg := DefaultConfig("broker.h", bk, ca.Public())
	cfg.Now = func() time.Time { return now }
	brk := New(cfg)

	uk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{92}, 32))
	idU := brk.RegisterUser(uk.Public())

	tk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{93}, 32))
	cert := ca.Issue("h-telco", "btelco", tk.Public(), now.Add(-time.Hour), now.Add(time.Hour))
	telco := &sap.TelcoState{
		IDT: "h-telco", Key: tk, Cert: cert,
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 1.5},
	}
	ue := &sap.UEState{IDU: idU, IDB: "broker.h", Key: uk, BrokerPub: bk.Public()}
	return &harness{brk: brk, ca: ca, ue: ue, ueKey: uk, telco: telco, now: now}
}

// attach runs the SAP exchange, returning the grant and session ref.
func (h *harness) attach(t testing.TB) (*sap.Grant, string) {
	t.Helper()
	reqU, pending, err := h.ue.NewAttachRequest(h.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := h.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.brk.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Fatalf("denied: %s", resp.Cause)
	}
	grant, respU, err := h.telco.HandleResponse(h.brk.Public(), resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ue.HandleResponse(pending, respU); err != nil {
		t.Fatal(err)
	}
	h.ueSealer = pending.Sealer
	return grant, grant.URef
}

// rekeyBroker replaces the harness broker by one built from another seed —
// same identifier, same subscriber — and points the UE at its key. Tickets
// and passes of the old one are now stale.
func (h *harness) rekeyBroker(t *testing.T) {
	t.Helper()
	bk, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{95}, 32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("broker.h", bk, h.ca.Public())
	cfg.Now = func() time.Time { return h.now }
	h.brk = New(cfg)
	h.brk.RegisterUser(h.ueKey.Public())
	h.ue.BrokerPub = bk.Public()
}

func (h *harness) report(t testing.TB, rep billing.Reporter, signer *pki.KeyPair, ref string, seq uint32, dl uint64) *billing.Mismatch {
	t.Helper()
	r := &billing.Report{
		SessionRef: ref, Reporter: rep, Seq: seq,
		Rel: time.Duration(seq) * 30 * time.Second, DLBytes: dl,
	}
	env, err := billing.Seal(r, signer, h.brk.Public())
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.brk.HandleReport(env)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGrantRecordedAndBound(t *testing.T) {
	h := newHarness(t)
	grant, ref := h.attach(t)
	rec := h.brk.Grant(ref)
	if rec == nil || rec.IDT != "h-telco" {
		t.Fatalf("grant record = %+v", rec)
	}
	if rec.SS != grant.SS {
		t.Fatal("broker and telco ss differ")
	}
}

func TestReportPipelineHonest(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	if m := h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000); m != nil {
		t.Fatalf("half pair flagged: %+v", m)
	}
	if m := h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 1_010_000); m != nil {
		t.Fatalf("honest pair flagged: %+v", m)
	}
}

func TestReportWrongSignerRejected(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	// The telco tries to forge a UE report with its own key.
	r := &billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1, DLBytes: 1}
	env, err := billing.Seal(r, h.telco.Key, h.brk.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.brk.HandleReport(env); err == nil {
		t.Fatal("forged UE report accepted")
	}
}

func TestReportUnknownSessionRejected(t *testing.T) {
	h := newHarness(t)
	h.attach(t)
	r := &billing.Report{SessionRef: "bogus", Reporter: billing.ReporterUE, Seq: 1}
	env, _ := billing.Seal(r, h.ueKey, h.brk.Public())
	if _, err := h.brk.HandleReport(env); err == nil {
		t.Fatal("report for unknown session accepted")
	}
}

func TestReputationGateDeniesAttach(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	// Persistent inflation tanks the score below the 0.5 gate.
	for seq := uint32(1); seq <= 10; seq++ {
		h.report(t, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000)
		h.report(t, billing.ReporterTelco, h.telco.Key, ref, seq, 5_000_000)
	}
	if s := h.brk.TelcoScore("h-telco"); s >= 0.5 {
		t.Fatalf("score %.2f still above gate", s)
	}
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	resp, err := h.brk.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("attach granted through disreputable bTelco")
	}
	if !strings.Contains(resp.Cause, "reputation") {
		t.Fatalf("cause = %q", resp.Cause)
	}
}

func TestPriceGate(t *testing.T) {
	h := newHarness(t)
	h.brk.cfg.MaxPricePerGB = 1.0 // telco advertises 1.5
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	resp, err := h.brk.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("over-priced bTelco accepted")
	}
	if !strings.Contains(resp.Cause, "price") {
		t.Fatalf("cause = %q", resp.Cause)
	}
}

func TestSettleSessionFlow(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 2_000_000)
	h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 2_020_000)
	st, err := h.brk.SettleSession(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Disputed {
		t.Fatal("honest session disputed")
	}
	if st.VerifiedBytes < 2_000_000 || st.VerifiedBytes > 2_020_000 {
		t.Fatalf("verified = %d", st.VerifiedBytes)
	}
	// Price from the SAP terms: 1.5 per GB.
	want := float64(st.VerifiedBytes) / 1e9 * 1.5
	if st.Amount != want {
		t.Fatalf("amount = %v, want %v", st.Amount, want)
	}
	if _, err := h.brk.SettleSession("bogus"); err == nil {
		t.Fatal("settle for unknown session accepted")
	}
}

func TestRevokedUserDenied(t *testing.T) {
	h := newHarness(t)
	h.brk.RevokeUser(h.ue.IDU)
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	resp, err := h.brk.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("revoked user granted")
	}
}

func TestWireServerRoundTrip(t *testing.T) {
	h := newHarness(t)
	srv, err := Serve(h.brk, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reqU, pending, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	resp, err := client.Authenticate(reqT)
	if err != nil {
		t.Fatal(err)
	}
	grant, respU, err := h.telco.HandleResponse(h.brk.Public(), resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ue.HandleResponse(pending, respU); err != nil {
		t.Fatal(err)
	}
	// Upload a report over the wire too.
	r := &billing.Report{SessionRef: grant.URef, Reporter: billing.ReporterUE, Seq: 1, DLBytes: 5}
	env, _ := billing.Seal(r, h.ueKey, h.brk.Public())
	if err := client.UploadReport(env); err != nil {
		t.Fatal(err)
	}
	// A refusal that asks for a signature arrives typed, so that
	// billing.Stream.Upload can answer it; any other is the wire's text.
	m := h.telcoMACStream(t)
	m.mac.Key[0] ^= 1 // the broker derives another key: it restarted, say
	if err := client.UploadReport(m.next(t)); !errors.Is(err, billing.ErrMustSign) {
		t.Fatalf("MAC'd report under a key the broker does not hold: %v", err)
	}
	m.seq++
	resent := &billing.Report{SessionRef: m.ref, Reporter: m.rep, Seq: m.seq, Rel: time.Duration(m.seq) * 30 * time.Second}
	if err := m.stream.Upload(resent, m.signer, m.sealer, &m.mac, client.UploadReport); err != nil {
		t.Fatalf("Upload over the wire: %v", err)
	}
	if err := client.UploadReport(env); err == nil || errors.Is(err, billing.ErrMustSign) {
		t.Fatalf("a replayed signed report: %v", err)
	}
}

func TestQoSViolationPenalized(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	// UE attests terrible delay (QCI 9 budget 300 ms; 3x factor = 900 ms)
	// over several cycles: QoS incidents accrue and the score dips, but
	// far more gently than accounting fraud would.
	for seq := uint32(1); seq <= 5; seq++ {
		r := &billing.Report{
			SessionRef: ref, Reporter: billing.ReporterUE, Seq: seq,
			Rel:     time.Duration(seq) * 30 * time.Second,
			DLBytes: 1_000_000,
			QoS:     billing.QoSMetrics{DLDelayMs: 2500},
		}
		env, err := billing.Seal(r, h.ueKey, h.brk.Public())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.brk.HandleReport(env); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.brk.QoSViolations("h-telco"); got != 5 {
		t.Fatalf("violations = %d, want 5", got)
	}
	s := h.brk.TelcoScore("h-telco")
	if s >= 1.0 {
		t.Fatalf("score unchanged: %v", s)
	}
	if s < 0.7 {
		t.Fatalf("QoS-only penalty too harsh: %.2f", s)
	}
}

func TestQoSWithinBudgetNoPenalty(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	r := &billing.Report{
		SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1,
		DLBytes: 1_000_000,
		QoS:     billing.QoSMetrics{DLDelayMs: 150, DLLossRate: 0.001},
	}
	env, _ := billing.Seal(r, h.ueKey, h.brk.Public())
	if _, err := h.brk.HandleReport(env); err != nil {
		t.Fatal(err)
	}
	if got := h.brk.QoSViolations("h-telco"); got != 0 {
		t.Fatalf("violations = %d for in-budget metrics", got)
	}
}

func TestPolicyChain(t *testing.T) {
	h := newHarness(t)
	h.brk.SetPolicy(qos.DefaultParams(),
		PriceCap(2.0),
		TierByPrice(1.0, qos.Params{QCI: qos.QCIWebTCPDefault, DLAmbrBps: 2e6, ULAmbrBps: 1e6}),
	)
	// The harness telco advertises 1.5/GB: admitted (under the 2.0 cap)
	// but throttled (over the 1.0 tier threshold).
	grant, _ := h.attach(t)
	if grant.Params.DLAmbrBps != 2e6 {
		t.Fatalf("throttled tier not applied: %+v", grant.Params)
	}

	// Tighten the cap below the advertised price: vetoed.
	h.brk.SetPolicy(qos.DefaultParams(), PriceCap(1.0))
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	resp, err := h.brk.HandleAuthRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("price-capped bTelco granted")
	}
}

func TestPolicyAllowBlockLists(t *testing.T) {
	h := newHarness(t)
	h.brk.SetPolicy(qos.DefaultParams(), AllowTelcos("someone-else"))
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	if resp, _ := h.brk.HandleAuthRequest(reqT); resp.Granted {
		t.Fatal("telco outside allow list granted")
	}
	h.brk.SetPolicy(qos.DefaultParams(), BlockTelcos("h-telco"))
	reqU2, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT2, _ := h.telco.ForwardRequest(reqU2)
	if resp, _ := h.brk.HandleAuthRequest(reqT2); resp.Granted {
		t.Fatal("blocked telco granted")
	}
	h.brk.SetPolicy(qos.DefaultParams(), AllowTelcos("h-telco"))
	h.attach(t) // allowed again
}

func TestPolicyRequireLI(t *testing.T) {
	h := newHarness(t)
	h.brk.SetPolicy(qos.DefaultParams(), RequireLI())
	reqU, _, _ := h.ue.NewAttachRequest(h.telco.IDT)
	reqT, _ := h.telco.ForwardRequest(reqU)
	if resp, _ := h.brk.HandleAuthRequest(reqT); resp.Granted {
		t.Fatal("non-LI telco granted under RequireLI")
	}
	h.telco.Terms.LawfulIntercept = true
	h.attach(t)
}

func TestPolicyPerUserAndOffPeak(t *testing.T) {
	h := newHarness(t)
	premium := qos.Params{QCI: qos.QCIWebTCPPremium, DLAmbrBps: 80e6, ULAmbrBps: 40e6}
	clock := time.Date(2026, 1, 1, 3, 0, 0, 0, time.UTC) // off-peak
	h.brk.SetPolicy(qos.DefaultParams(),
		PerUserQoS(map[string]qos.Params{h.ue.IDU: premium}),
		OffPeakBoost(func() time.Time { return clock }, 1.25),
	)
	grant, _ := h.attach(t)
	// Premium override boosted 1.25x, then clamped to the 100 Mbps cap.
	want := uint64(80e6 * 1.25)
	if grant.Params.DLAmbrBps != want {
		t.Fatalf("DL = %d, want %d", grant.Params.DLAmbrBps, want)
	}
	if grant.Params.QCI != qos.QCIWebTCPPremium {
		t.Fatalf("QCI = %d", grant.Params.QCI)
	}
}

func TestSnapshotRestore(t *testing.T) {
	h := newHarness(t)
	_, ref := h.attach(t)
	// Build up some state: reports, a mismatch, a price.
	h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
	h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 5_000_000) // inflation
	scoreBefore := h.brk.TelcoScore("h-telco")
	if scoreBefore >= 1.0 {
		t.Fatal("setup: no reputation damage")
	}

	snap := h.brk.Snapshot()

	// A fresh broker with the same identity restores everything.
	bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{91}, 32))
	cfg := DefaultConfig("broker.h", bk, h.ca.Public())
	cfg.Now = func() time.Time { return h.now }
	fresh := New(cfg)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := fresh.TelcoScore("h-telco"); got != scoreBefore {
		t.Fatalf("restored score %.3f != %.3f", got, scoreBefore)
	}
	if fresh.Grant(ref) == nil {
		t.Fatal("grant lost across restart")
	}
	// The restored broker keeps serving: the old user attaches again...
	h.brk = fresh
	h.attach(t)
	// ...and keeps settling the old session's reports.
	h.report(t, billing.ReporterUE, h.ueKey, ref, 2, 2_000_000)
	h.report(t, billing.ReporterTelco, h.telco.Key, ref, 2, 2_020_000)
	st, err := fresh.SettleSession(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.VerifiedBytes == 0 {
		t.Fatal("settlement lost history")
	}
	// Price survived the restart (1.5/GB from the original SAP terms).
	if want := float64(st.VerifiedBytes) / 1e9 * 1.5; st.Amount != want {
		t.Fatalf("amount %.9f, want %.9f", st.Amount, want)
	}
}

func TestRestoreRejectsWrongBrokerOrVersion(t *testing.T) {
	h := newHarness(t)
	snap := h.brk.Snapshot()
	bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{99}, 32))
	other := New(DefaultConfig("broker.other", bk, h.ca.Public()))
	if err := other.Restore(snap); err == nil {
		t.Fatal("snapshot restored into a different broker")
	}
	bad := append([]byte(nil), snap...)
	bad[0] = 99
	if err := h.brk.Restore(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	if err := h.brk.Restore(snap[:10]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// Receipts (DESIGN.md §2.9): the broker vouches, with one signature, for
// exactly the grants it recorded for the asking bTelco — whatever shape the
// request arrives in — and what it signs a third party can check with
// nothing but the broker's public key.
func TestBrokerReceiptLadder(t *testing.T) {
	// primed returns a harness whose bTelco holds three unreceipted
	// MAC-mode grants, and their session references.
	primed := func(t *testing.T) (*harness, []string) {
		h := newHarness(t)
		h.attach(t) // first contact: signed, fetches the pass
		var refs []string
		for i := 0; i < 3; i++ {
			_, ref := h.attach(t)
			refs = append(refs, ref)
		}
		return h, refs
	}
	for _, tc := range []struct {
		name string
		// ask builds the request and the broker that gets it.
		ask       func(t *testing.T, h *harness) *sap.ReceiptReq
		wantCause string // "" = signed
		disowns   bool   // the refusal names the oldest reference asked about
		wantErr   error  // the bTelco's verdict on the answer
		left      int    // grants still unreceipted at the bTelco afterwards
	}{
		{name: "three grants under the pass",
			ask: func(t *testing.T, h *harness) *sap.ReceiptReq { return h.telco.ReceiptRequest(h.brk.ID()) }},
		{name: "signed request from a bTelco that dropped its pass",
			ask: func(t *testing.T, h *harness) *sap.ReceiptReq {
				h.telco.DropPasses()
				req := h.telco.ReceiptRequest(h.brk.ID())
				if len(req.Sig) != 64 {
					t.Fatalf("%d-byte Sig after DropPasses", len(req.Sig))
				}
				return req
			}},
		{name: "another bTelco's grants", wantCause: "not a grant of this broker to h-telco-2", disowns: true, wantErr: sap.ErrReceiptRefused, left: 2,
			ask: func(t *testing.T, h *harness) *sap.ReceiptReq {
				// h-telco-2 is certified and asks, under its own name and
				// signature, for a receipt over sessions granted to h-telco.
				tk2, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{89}, 32))
				h.telco.IDT, h.telco.Key = "h-telco-2", tk2
				h.telco.Cert = h.ca.Issue("h-telco-2", "btelco", tk2.Public(), h.now.Add(-time.Hour), h.now.Add(time.Hour))
				return h.telco.ReceiptRequest(h.brk.ID())
			}},
		{name: "grants the broker has no record of", wantCause: "not a grant of this broker to h-telco", disowns: true, wantErr: sap.ErrReceiptRefused, left: 2,
			ask: func(t *testing.T, h *harness) *sap.ReceiptReq {
				// The same seed, none of the state: the pass still
				// authenticates, the grants are gone.
				bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{91}, 32))
				cfg := DefaultConfig("broker.h", bk, h.ca.Public())
				cfg.Now = func() time.Time { return h.now }
				h.brk = New(cfg)
				req := h.telco.ReceiptRequest(h.brk.ID())
				if len(req.Sig) != 32 {
					t.Fatalf("%d-byte Sig", len(req.Sig))
				}
				return req
			}},
		{name: "tag flipped", wantCause: "bTelco MAC invalid", wantErr: sap.ErrStalePass, left: 3,
			ask: func(t *testing.T, h *harness) *sap.ReceiptReq {
				req := h.telco.ReceiptRequest(h.brk.ID())
				req.Sig[0] ^= 1
				return req
			}},
		{name: "a reference appended after the MAC", wantCause: "bTelco MAC invalid", wantErr: sap.ErrStalePass, left: 3,
			ask: func(t *testing.T, h *harness) *sap.ReceiptReq {
				req := h.telco.ReceiptRequest(h.brk.ID())
				req.URefs = append(req.URefs, "feedfacefeedfacefeedface")
				return req
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, refs := primed(t)
			req := tc.ask(t, h)
			resp, err := h.brk.HandleReceipt(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Granted != (tc.wantCause == "") || resp.Cause != tc.wantCause {
				t.Fatalf("granted=%v cause=%q, want %q", resp.Granted, resp.Cause, tc.wantCause)
			}
			if want := map[bool]string{true: refs[0]}[tc.disowns]; resp.Disowned != want {
				t.Fatalf("disowned %q, want %q", resp.Disowned, want)
			}
			if err := h.telco.AcceptReceipt(h.brk.Public(), req, resp); !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("bTelco: %v, want %v", err, tc.wantErr)
			}
			receipts, left := h.telco.Receipts(h.brk.ID())
			if left != tc.left {
				t.Fatalf("%d grants unreceipted, want %d", left, tc.left)
			}
			if !resp.Granted {
				return
			}
			// A third party holding only the broker's public key.
			pub := h.brk.Public()
			for _, ref := range refs {
				if err := sap.VerifyReceipt(pub, receipts[0], ref); err != nil {
					t.Fatalf("third party, %s: %v", ref, err)
				}
			}
			// Replayed, the request gets the same statement again — true
			// both times — and moves nothing at either end.
			again, err := h.brk.HandleReceipt(req)
			if err != nil || !again.Granted || sap.VerifyReceipt(pub, &again.Receipt, refs[0]) != nil {
				t.Fatalf("replayed request: %v %+v", err, again)
			}
			if err := h.telco.AcceptReceipt(pub, req, again); err != nil {
				t.Fatal(err)
			}
			if receipts, left := h.telco.Receipts(h.brk.ID()); len(receipts) != 1 || left != 0 {
				t.Fatalf("after the replay: %d receipts kept, %d unreceipted", len(receipts), left)
			}
		})
	}
	if _, err := newHarness(t).brk.HandleReceipt(nil); !errors.Is(err, sap.ErrBadRequest) {
		t.Fatalf("nil request: %v", err)
	}
}

// What a dispute needs is recoverable from broker state (DESIGN.md §2.10):
// the report body it stored, the checkpoint it kept and the reporter's
// public key convince a third party, and an altered body does not.
func TestBrokerKeepsWhatADisputeNeeds(t *testing.T) {
	h := newHarness(t)
	m := h.ueMACStream(t)
	m.send(t, 256)
	cps := h.brk.Checkpoints(billing.ReporterUE, h.ue.IDU)
	if len(cps) != 1 {
		t.Fatalf("%d checkpoints kept after 256 MAC'd reports, want 1", len(cps))
	}
	stored := h.brk.Reports(m.ref, billing.ReporterUE)
	if len(stored) != 257 {
		t.Fatalf("%d report bodies stored, want 257", len(stored))
	}
	pub := h.ueKey.Public()
	for _, r := range stored[1:] {
		if err := billing.VerifyCheckpoint(pub, cps[0], r); err != nil {
			t.Fatalf("seq %d: %v", r.Seq, err)
		}
	}
	altered := *stored[100]
	altered.DLBytes += 1 << 20
	if err := billing.VerifyCheckpoint(pub, cps[0], &altered); !errors.Is(err, billing.ErrBadCheckpoint) {
		t.Fatalf("altered body: %v", err)
	}
	// The signed first report is not the checkpoint's business, and the
	// bTelco's key proves nothing about the UE's reports.
	if err := billing.VerifyCheckpoint(pub, cps[0], stored[0]); !errors.Is(err, billing.ErrBadCheckpoint) {
		t.Fatalf("unlisted report: %v", err)
	}
	if err := billing.VerifyCheckpoint(h.telco.Key.Public(), cps[0], stored[1]); !errors.Is(err, billing.ErrBadCheckpoint) {
		t.Fatalf("wrong reporter key: %v", err)
	}
}

// The snapshot carries a bTelco's certified key, not its certificate, so a
// restored broker cannot derive its pass until its next grant brings the
// certificate back: MAC'd bTelco reports are refused in between (signed
// ones are not), and a UE's MAC'd reports never notice — their key derives
// from the report's own box.
func TestRestoredBrokerRelearnsAPassAtTheNextGrant(t *testing.T) {
	h := newHarness(t)
	ueStream := h.ueMACStream(t)
	ueStream.send(t, 2)
	m := h.telcoMACStream(t)
	m.send(t, 2)
	nb, err := Restart(restartConfig(h), h.brk.Snapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.brk = nb
	if _, err := nb.HandleReport(m.next(t)); !errors.Is(err, ErrBadReporterKey) || !errors.Is(err, billing.ErrMustSign) {
		t.Fatalf("MAC'd bTelco report at a freshly restored broker: %v", err)
	}
	// Which is the bTelco's cue: its next report, before any new grant, goes
	// out MAC'd, is refused, and is accepted signed — once, as that Seq.
	m.seq++
	r := &billing.Report{SessionRef: m.ref, Reporter: m.rep, Seq: m.seq, Rel: time.Duration(m.seq) * 30 * time.Second}
	var sigs []int
	if err := m.stream.Upload(r, m.signer, m.sealer, &m.mac, func(env *billing.SealedReport) error {
		sigs = append(sigs, len(env.Sig))
		_, err := nb.HandleReport(env)
		return err
	}); err != nil || !slices.Equal(sigs, []int{32, 64}) {
		t.Fatalf("upload to a freshly restored broker: Sig lengths %v, %v", sigs, err)
	}
	stored := nb.Reports(m.ref, billing.ReporterTelco)
	if len(stored) != 1 || stored[0].Seq != m.seq {
		t.Fatalf("%d bTelco reports stored after the restore, want the resent one", len(stored))
	}
	ueStream.send(t, 2)
	h.attach(t)
	m.send(t, 2)
}
