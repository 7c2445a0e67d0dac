package broker

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// authReq builds a fresh bTelco-forwarded SAP request for the harness UE.
func authReq(t *testing.T, h *harness) *sap.AuthReqT {
	t.Helper()
	reqU, _, err := h.ue.NewAttachRequest(h.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := h.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	return reqT
}

func TestShedLoadTypedRetryAfterOverWire(t *testing.T) {
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

	h.brk.ShedLoad(300 * time.Millisecond)
	if !h.brk.Degraded() {
		t.Fatal("ShedLoad did not mark the broker degraded")
	}
	_, err = client.Authenticate(authReq(t, h))
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("degraded auth err = %v, want *wire.RetryAfterError", err)
	}
	if ra.After != 300*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 300ms (survived the wire round trip)", ra.After)
	}
	if h.brk.ShedCount() != 1 {
		t.Fatalf("ShedCount = %d, want 1", h.brk.ShedCount())
	}

	// Reports must keep flowing while attaches shed: ingestion is cheap
	// and losing it would open a billing gap. (The session predates the
	// degradation.)
	h.brk.Resume()
	if h.brk.Degraded() {
		t.Fatal("Resume did not clear degraded state")
	}
	resp, err := client.Authenticate(authReq(t, h))
	if err != nil {
		t.Fatalf("auth after Resume: %v", err)
	}
	if !resp.Granted {
		t.Fatalf("denied after Resume: %s", resp.Cause)
	}
}

func TestRestartRestoresSnapshotOverWire(t *testing.T) {
	// Build the world by hand (not newHarness) so the broker Config is
	// available for the crash-restart constructor.
	now := time.Unix(1_760_000_000, 0)
	ca, err := pki.NewCAFromSeed("r-ca", bytes.Repeat([]byte{95}, 32))
	if err != nil {
		t.Fatal(err)
	}
	bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{96}, 32))
	cfg := DefaultConfig("broker.restart", bk, ca.Public())
	cfg.Now = func() time.Time { return now }
	brk := New(cfg)

	uk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{97}, 32))
	idU := brk.RegisterUser(uk.Public())
	tk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{98}, 32))
	cert := ca.Issue("r-telco", "btelco", tk.Public(), now.Add(-time.Hour), now.Add(time.Hour))
	telco := &sap.TelcoState{
		IDT: "r-telco", Key: tk, Cert: cert,
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 1.0},
	}
	ue := &sap.UEState{IDU: idU, IDB: "broker.restart", Key: uk, BrokerPub: bk.Public()}
	h := &harness{brk: brk, ca: ca, ue: ue, ueKey: uk, telco: telco, now: now}

	// A grant lands and its first billing pair, then the broker "crashes" —
	// the last snapshot is all that survives. The restarted process derives
	// its key pair afresh, so it remembers no key exchange: the memo is a
	// cache, and neither the snapshot nor recovery knows it exists. Nor do
	// they know tickets exist: the in-flight session is the UE's second, so
	// its exchange is one the broker never ran and keeps no record of.
	h.attach(t)
	_, ref := h.attach(t)
	inFlight := h.ueSealer
	ticketMAC, ticketed := inFlight.MACKey()
	var baseband billing.Stream
	sealPair := func(seq uint32) (ueEnv, tEnv *billing.SealedReport) {
		t.Helper()
		var err error
		r := billing.Report{SessionRef: ref, Seq: seq, Rel: time.Duration(seq) * 30 * time.Second, DLBytes: 1000}
		r.Reporter = billing.ReporterUE
		if ueEnv, err = baseband.Seal(&r, uk, inFlight, &ticketMAC); err != nil {
			t.Fatal(err)
		}
		r.Reporter = billing.ReporterTelco
		if tEnv, err = telco.SealReport(bk.Public(), &r); err != nil {
			t.Fatal(err)
		}
		return ueEnv, tEnv
	}
	// Each stream's first report is signed; the pair after the crash is MAC'd.
	ue1, t1 := sealPair(1)
	if !ticketed || len(ue1.Sig) != 64 || len(t1.Sig) != 64 {
		t.Fatalf("first pair: ticketed %v, %d- and %d-byte Sig", ticketed, len(ue1.Sig), len(t1.Sig))
	}
	if !bk.TicketBound(ue1.Sealed, idU) {
		t.Fatal("the in-flight session does not ride a ticket")
	}
	for _, env := range []*billing.SealedReport{ue1, t1} {
		if m, err := brk.HandleReport(env); err != nil || m != nil {
			t.Fatalf("report before the crash: %+v, %v", m, err)
		}
	}
	snap := brk.Snapshot()
	if cfg.Key, err = pki.KeyPairFromSeed(bytes.Repeat([]byte{96}, 32)); err != nil {
		t.Fatal(err)
	}

	nb, err := Restart(cfg, snap, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !nb.Degraded() {
		t.Fatal("restarted broker should start in the shed window")
	}
	if nb.Grant(ref) == nil {
		t.Fatal("grant did not survive the snapshot round trip")
	}

	srv, err := Serve(nb, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Before any new grant the restored broker holds the bTelco's certified
	// key and no pass. The bTelco's next report for its live session goes out
	// MAC'd, comes back "sign it", and is ingested signed — the real
	// TelcoState, over the wire, no attach in between.
	var sigs []int
	r2 := &billing.Report{SessionRef: ref, Reporter: billing.ReporterTelco, Seq: 2, Rel: time.Minute, DLBytes: 1000}
	if err := telco.UploadReport(bk.Public(), r2, func(env *billing.SealedReport) error {
		sigs = append(sigs, len(env.Sig))
		return client.UploadReport(env)
	}); err != nil || len(sigs) != 2 || sigs[0] != 32 || sigs[1] != 64 {
		t.Fatalf("bTelco report right after Restore: Sig lengths %v, %v", sigs, err)
	}

	// During the shed window the restored broker refuses with the typed
	// hint...
	shed := authReq(t, h)
	_, err = client.Authenticate(shed)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("degraded auth err = %v, want *wire.RetryAfterError", err)
	}
	// ...and afterwards grants the same bytes retransmitted: a request on
	// the ticket the crashed process minted, forwarded under the pass it
	// handed the bTelco, both of which the new one re-derives from its seed
	// alone — and answers in kind, unsigned on both legs.
	nb.Resume()
	resp, err := client.Authenticate(shed)
	if len(shed.ReqU.Sig) != 0 || len(shed.Sig) != 32 || err != nil || !resp.Granted {
		t.Fatalf("pre-crash ticket and pass at the restarted broker: UE sig %d B, bTelco sig %d B, %v %+v",
			len(shed.ReqU.Sig), len(shed.Sig), err, resp)
	}
	if len(resp.T.Sig) != 0 {
		t.Fatalf("answered with a %d-byte authRespT signature", len(resp.T.Sig))
	}
	if _, _, err := telco.HandleResponse(nb.Public(), resp); err != nil {
		t.Fatalf("bTelco on the restarted broker's MAC-mode grant: %v", err)
	}
	// The in-flight session was granted under the pass before the crash; the
	// grant record came back with the snapshot, so the restarted broker
	// signs the receipt for it, over the wire, and anybody can check it.
	rreq := telco.ReceiptRequest(nb.ID())
	rresp, err := client.RedeemReceipt(rreq)
	if err != nil || !rresp.Granted {
		t.Fatalf("receipt at the restarted broker: %v %+v", err, rresp)
	}
	if err := telco.AcceptReceipt(nb.Public(), rreq, rresp); err != nil {
		t.Fatal(err)
	}
	receipts, unreceipted := telco.Receipts(nb.ID())
	if len(receipts) != 1 || unreceipted != 0 || sap.VerifyReceipt(nb.Public(), receipts[0], ref) != nil {
		t.Fatalf("%d receipts, %d grants unreceipted, pre-crash session covered: %v",
			len(receipts), unreceipted, sap.VerifyReceipt(nb.Public(), receipts[0], ref))
	}
	// The restored user registration serves a fresh attach — the signed
	// handshake, since the UE never saw that answer: recovery is complete
	// without re-provisioning anything.
	h.brk = nb
	_, ref2 := h.attach(t)
	if ref2 == ref {
		t.Fatal("fresh attach reused the old session ref")
	}
	// The in-flight session's next pair still rides the exchanges opened
	// before the crash — the UE's attach exchange, the bTelco's resident
	// one — and the restarted broker, which has seen neither, opens both.
	// Both are MAC'd (DESIGN.md §2.10): the UE's key derives from its box,
	// and the bTelco's pass came back with the grant above — before it, the
	// restarted broker held only the certified key the snapshot carries.
	ue2, t2 := sealPair(3)
	if !bytes.Equal(ue2.Sealed[:32], ue1.Sealed[:32]) || !bytes.Equal(t2.Sealed[:32], t1.Sealed[:32]) {
		t.Fatal("reports after the restart left their pre-crash exchanges")
	}
	if len(ue2.Sig) != 32 || len(t2.Sig) != 32 {
		t.Fatalf("the pair after the grant carries %d- and %d-byte Sigs, want MACs", len(ue2.Sig), len(t2.Sig))
	}
	for _, env := range []*billing.SealedReport{ue2, t2} {
		if m, err := nb.HandleReport(env); err != nil || m != nil {
			t.Fatalf("in-flight session's report after restart: %+v, %v", m, err)
		}
	}
}

func TestRestartNilSnapshot(t *testing.T) {
	bk, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{99}, 32))
	ca, err := pki.NewCAFromSeed("n-ca", bytes.Repeat([]byte{100}, 32))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Restart(DefaultConfig("broker.amnesia", bk, ca.Public()), nil, 0)
	if err != nil {
		t.Fatalf("Restart with nil snapshot: %v", err)
	}
	if nb.Degraded() {
		t.Fatal("shedFor=0 must not start degraded")
	}
}

// A typed shed means the broker never looked at the request: on each of
// the three ways an attach can be shed, the very same request is granted
// once the broker admits it, and only a second delivery after that grant
// trips the replay filter. This is what lets a UE retransmit a shed
// request instead of sealing and signing a new one.
func TestShedLeavesNonceUnconsumed(t *testing.T) {
	isShed := func(err error) bool {
		var ra *wire.RetryAfterError
		return errors.As(err, &ra)
	}
	grantedThenReplay := func(t *testing.T, h *harness, req *sap.AuthReqT) {
		t.Helper()
		resp, err := h.brk.HandleAuthRequest(req)
		if err != nil || !resp.Granted {
			t.Fatalf("retransmitted request after the shed: resp=%+v err=%v, want a grant", resp, err)
		}
		resp, err = h.brk.HandleAuthRequest(req)
		if err != nil || resp.Granted || resp.Cause != "replayed nonce" {
			t.Fatalf("consumed request delivered again: resp=%+v err=%v, want a replayed-nonce denial", resp, err)
		}
	}

	t.Run("degraded HandleAuthRequest", func(t *testing.T) {
		h := newHarness(t)
		req := authReq(t, h)
		h.brk.ShedLoad(time.Second)
		if _, err := h.brk.HandleAuthRequest(req); !isShed(err) {
			t.Fatalf("err = %v, want a typed shed", err)
		}
		h.brk.Resume()
		grantedThenReplay(t, h, req)
	})

	t.Run("AdmitAttach refusal inside HandleAuthRequest", func(t *testing.T) {
		h := newHarness(t)
		var now time.Duration
		h.brk.EnableAdmission(AdmissionConfig{Rate: 1, Burst: 2}, func() time.Duration { return now })
		h.attach(t)
		h.attach(t) // bucket drained
		req := authReq(t, h)
		if _, err := h.brk.HandleAuthRequest(req); !isShed(err) {
			t.Fatalf("err = %v, want a typed shed", err)
		}
		now += 2 * time.Second // two tokens: the retransmission and the replay
		grantedThenReplay(t, h, req)
	})

	t.Run("storm pre-enqueue AdmitAttach", func(t *testing.T) {
		h := newHarness(t)
		h.brk.EnableAdmission(AdmissionConfig{Rate: 1000, Burst: 1000, MaxQueue: 1}, func() time.Duration { return 0 })
		bat := h.brk.NewBatcher()
		req := authReq(t, h)
		if err := h.brk.AdmitAttach(1); !isShed(err) { // queue full: shed before enqueue
			t.Fatalf("err = %v, want a typed shed", err)
		}
		for i, want := range []string{"", "replayed nonce"} {
			if err := h.brk.AdmitAttach(0); err != nil {
				t.Fatal(err)
			}
			bat.EnqueueAuth(req)
			outs := bat.Flush()
			if len(outs) != 1 || outs[0].Err != nil || outs[0].Auth.Granted != (want == "") || outs[0].Auth.Cause != want {
				t.Fatalf("delivery %d: %+v, want cause %q", i, outs, want)
			}
		}
	})
}
