package epc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// recordingBroker is an in-process northbound that notes the size of every
// authReqT's bTelco authenticator, and can carry receipts.
type recordingBroker struct {
	b        *broker.Brokerd
	sigSizes *[]int
	redeemed *int
	// forge, when set, answers every request instead of the broker.
	forge *sap.AuthResp
}

func (c recordingBroker) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	*c.sigSizes = append(*c.sigSizes, len(req.Sig))
	if c.forge != nil {
		return c.forge, nil
	}
	return c.b.HandleAuthRequest(req)
}

func (c recordingBroker) RedeemReceipt(req *sap.ReceiptReq) (*sap.ReceiptResp, error) {
	*c.redeemed++
	return c.b.HandleReceipt(req)
}

// swapDirectory resolves the one broker ID to whatever client and key it
// currently holds.
type swapDirectory struct {
	client BrokerClient
	pub    pki.PublicIdentity
}

func (d *swapDirectory) Lookup(string) (BrokerClient, pki.PublicIdentity, error) {
	return d.client, d.pub, nil
}

// reattach runs one attach–detach cycle of dev through the world's AGW.
func (w *world) reattach(t *testing.T, dev *ue.Device) {
	t.Helper()
	if _, err := dev.AttachSAP(w.tx, "btelco-1"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Detach(w.tx); err != nil {
		t.Fatal(err)
	}
}

// A broker that re-keyed refuses the bTelco's pass before its replay filter
// sees the nonce; the AGW forwards the same authReqU once more, signed, and
// the UE gets its accept without ever hearing of it. A refusal of the signed
// forward too — somebody forging denials — is an ordinary reject.
func TestSAPAttachReforwardsOnceOnAStalePass(t *testing.T) {
	w := buildWorld(t)
	var sizes []int
	redeemed := 0
	dir := &swapDirectory{client: recordingBroker{b: w.brk, sigSizes: &sizes, redeemed: &redeemed}, pub: w.brk.Public()}
	w.agw.cfg.Brokers = dir
	w.reattach(t, w.dev) // signed: fetches the pass
	w.reattach(t, w.dev) // under the pass

	// The broker comes back under a new key: same identifier, same CA, same
	// subscriber.
	now := time.Unix(1_750_000_000, 0)
	newKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{54}, 32))
	ca, _ := pki.NewCAFromSeed("ca", bytes.Repeat([]byte{50}, 32)) // buildWorld's
	cfg := broker.DefaultConfig("broker.example", newKey, ca.Public())
	cfg.Now = func() time.Time { return now }
	rekeyed := broker.New(cfg)
	rekeyed.RegisterUser(w.dev.CB.Key.Public())
	dir.client, dir.pub = recordingBroker{b: rekeyed, sigSizes: &sizes, redeemed: &redeemed}, rekeyed.Public()
	fresh := ue.NewDevice("ran-ue-1", nil, &sap.UEState{IDU: w.dev.CB.IDU, IDB: w.dev.CB.IDB, Key: w.dev.CB.Key, BrokerPub: rekeyed.Public()})

	sizes = sizes[:0]
	w.reattach(t, fresh)
	if len(sizes) != 2 || sizes[0] != 32 || sizes[1] != 64 {
		t.Fatalf("authReqT authenticator sizes %v, want a refused MAC then a signature", sizes)
	}
	if st := w.agw.Stats(); st.AttachFailures != 0 || st.Attaches != 3 {
		t.Fatalf("AGW stats %+v, want 3 attaches and no failure", st)
	}
	sizes = sizes[:0]
	w.reattach(t, fresh)
	if len(sizes) != 1 || sizes[0] != 32 {
		t.Fatalf("the attach after: authenticator sizes %v, want one MAC under the new broker's pass", sizes)
	}

	// Denials are unauthenticated: one that claims a refused MAC whatever is
	// sent costs the bTelco its pass and the UE this attach, nothing more.
	forger := recordingBroker{b: rekeyed, sigSizes: &sizes, redeemed: &redeemed, forge: &sap.AuthResp{Cause: "bTelco MAC invalid"}}
	dir.client = forger
	sizes = sizes[:0]
	if _, err := fresh.AttachSAP(w.tx, "btelco-1"); !errors.Is(err, ue.ErrRejected) {
		t.Fatalf("forged refusals: err = %v, want a reject", err)
	}
	if len(sizes) != 2 || sizes[0] != 32 || sizes[1] != 64 || w.agw.Stats().AttachFailures != 1 {
		t.Fatalf("forged refusals: sizes %v, stats %+v", sizes, w.agw.Stats())
	}
	forger.forge = nil
	dir.client = forger
	sizes = sizes[:0]
	w.reattach(t, fresh)
	if len(sizes) != 1 || sizes[0] != 64 {
		t.Fatalf("after the forgery: sizes %v, want the signed handshake", sizes)
	}
}

// Through a client that can carry the exchange the AGW redeems a receipt
// when the bTelco's 256th MAC-mode grant lands, and everything the bTelco
// served under the pass is then covered by a statement anybody can check;
// through one that cannot, nothing is ever redeemed and the bTelco holds the
// last 256 references and no more.
func TestAGWRedeemsAReceiptEvery256MACModeGrants(t *testing.T) {
	w := buildWorld(t)
	telco := w.agw.cfg.Telco
	var sizes []int
	redeemed := 0
	w.agw.cfg.Brokers = &swapDirectory{client: recordingBroker{b: w.brk, sigSizes: &sizes, redeemed: &redeemed}, pub: w.brk.Public()}
	var refs []string
	for i := 0; i < 1+256+10; i++ {
		a, err := w.dev.AttachSAP(w.tx, "btelco-1")
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, w.agw.Session(a.SessionID).URef)
		if want := i / 256; redeemed != want { // the 257th attach is the 256th under the pass
			t.Fatalf("after attach %d: %d redemptions, want %d", i+1, redeemed, want)
		}
		if _, unreceipted := telco.Receipts("broker.example"); unreceipted > 256 {
			t.Fatalf("after attach %d: %d grants unreceipted", i+1, unreceipted)
		}
		if err := w.dev.Detach(w.tx); err != nil {
			t.Fatal(err)
		}
	}
	receipts, unreceipted := telco.Receipts("broker.example")
	if len(receipts) != 1 || unreceipted != 10 {
		t.Fatalf("%d receipts, %d grants unreceipted, want 1 and 10", len(receipts), unreceipted)
	}
	for i, ref := range refs[1:257] {
		if err := sap.VerifyReceipt(w.brk.Public(), receipts[0], ref); err != nil {
			t.Fatalf("grant %d under the pass: %v", i, err)
		}
	}
	if sap.VerifyReceipt(w.brk.Public(), receipts[0], refs[0]) == nil {
		t.Fatal("the receipt covers the signed first contact, whose authRespT is its own proof")
	}

	// The same run through buildWorld's client, which has no RedeemReceipt.
	w = buildWorld(t)
	for i := 0; i < 1+256+10; i++ {
		w.reattach(t, w.dev)
	}
	receipts, unreceipted = w.agw.cfg.Telco.Receipts("broker.example")
	if len(receipts) != 0 || unreceipted != 256 {
		t.Fatalf("no redeeming client: %d receipts, %d grants unreceipted, want 0 and the ring's 256", len(receipts), unreceipted)
	}
}
