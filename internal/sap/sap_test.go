package sap

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// fixture wires a UE, a certified bTelco, and a broker with a shared CA.
type fixture struct {
	ue     *UEState
	telco  *TelcoState
	broker *BrokerState
	ca     *pki.CA
	now    time.Time
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	now := time.Unix(1_750_000_000, 0)
	ca, err := pki.NewCAFromSeed("root-ca", bytes.Repeat([]byte{77}, 32))
	if err != nil {
		t.Fatal(err)
	}
	brokerKey, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	telcoKey, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{2}, 32))
	if err != nil {
		t.Fatal(err)
	}
	ueKey, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		t.Fatal(err)
	}

	broker := NewBrokerState("broker.example", brokerKey, ca.Public(), nil, func() time.Time { return now })
	idU := broker.RegisterUser(ueKey.Public())

	telcoCert := ca.Issue("btelco-1", "btelco", telcoKey.Public(), now.Add(-time.Hour), now.Add(24*time.Hour))
	telco := &TelcoState{
		IDT:  "btelco-1",
		Key:  telcoKey,
		Cert: telcoCert,
		Terms: ServiceTerms{
			Cap:             qos.DefaultCapability(),
			LawfulIntercept: false,
			PricePerGB:      2.5,
		},
	}
	ue := &UEState{IDU: idU, IDB: "broker.example", Key: ueKey, BrokerPub: brokerKey.Public()}
	return &fixture{ue: ue, telco: telco, broker: broker, ca: ca, now: now}
}

// runAttach executes the full SAP exchange, returning everything each
// party derived.
func (f *fixture) runAttach(t *testing.T) (ueSS, telcoSS [32]byte, grant *Grant, rec *GrantRecord) {
	t.Helper()
	reqU, pending, err := f.ue.NewAttachRequest(f.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	// Exercise wire encoding on every leg.
	reqU2, err := UnmarshalAuthReqU(reqU.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := f.telco.ForwardRequest(reqU2)
	if err != nil {
		t.Fatal(err)
	}
	reqT2, err := UnmarshalAuthReqT(reqT.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	resp, grantRec, err := f.broker.HandleRequest(reqT2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Fatalf("denied: %s", resp.Cause)
	}
	resp2, err := UnmarshalAuthResp(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	g, respU, err := f.telco.HandleResponse(f.broker.Key.Public(), resp2)
	if err != nil {
		t.Fatal(err)
	}
	respU2, err := UnmarshalAuthRespU(respU.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ss, uref, err := f.ue.HandleResponse(pending, respU2)
	if err != nil {
		t.Fatal(err)
	}
	if uref != g.URef {
		t.Fatalf("UE learned URef %q, bTelco got %q", uref, g.URef)
	}
	return ss, g.SS, g, grantRec
}

func TestSAPEndToEnd(t *testing.T) {
	f := newFixture(t)
	ueSS, telcoSS, grant, rec := f.runAttach(t)
	if ueSS != telcoSS {
		t.Fatal("UE and bTelco derived different shared secrets")
	}
	if rec.SS != ueSS {
		t.Fatal("broker record holds a different ss")
	}
	if grant.URef == "" || grant.URef != rec.URef {
		t.Fatalf("URef mismatch: grant=%q rec=%q", grant.URef, rec.URef)
	}
	if rec.IDU != f.ue.IDU || rec.IDT != f.telco.IDT {
		t.Fatalf("grant record identities wrong: %+v", rec)
	}
	if err := grant.Params.Validate(f.telco.Terms.Cap); err != nil {
		t.Fatalf("granted QoS outside capability: %v", err)
	}
}

func TestSAPTelcoNeverSeesUserIdentity(t *testing.T) {
	f := newFixture(t)
	reqU, _, err := f.ue.NewAttachRequest(f.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	wire := reqU.Marshal()
	if bytes.Contains(wire, []byte(f.ue.IDU)) {
		t.Fatal("cleartext idU visible to bTelco (IMSI-catcher exposure)")
	}
	// The grant the bTelco gets back must carry the opaque URef, not idU.
	_, _, grant, _ := f.runAttach(t)
	if grant.URef == f.ue.IDU {
		t.Fatal("grant leaks the real user identifier")
	}
}

func TestSAPDistinctAttachesFreshSecrets(t *testing.T) {
	f := newFixture(t)
	a, _, _, _ := f.runAttach(t)
	b, _, _, _ := f.runAttach(t)
	if a == b {
		t.Fatal("two attaches produced the same ss")
	}
}

func TestSAPReplayRejected(t *testing.T) {
	f := newFixture(t)
	reqU, _, err := f.ue.NewAttachRequest(f.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := f.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	resp1, _, err := f.broker.HandleRequest(reqT)
	if err != nil || !resp1.Granted {
		t.Fatalf("first request: %v granted=%v", err, resp1.Granted)
	}
	resp2, rec2, err := f.broker.HandleRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Granted || rec2 != nil {
		t.Fatal("replayed request granted")
	}
	if !strings.Contains(resp2.Cause, "replay") {
		t.Fatalf("cause = %q, want replay", resp2.Cause)
	}
}

func TestSAPRequestBoundToTelco(t *testing.T) {
	f := newFixture(t)
	// A second certified bTelco captures the UE's request destined for
	// btelco-1 and tries to forward it as its own.
	evilKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{9}, 32))
	evilCert := f.ca.Issue("btelco-evil", "btelco", evilKey.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))
	evil := &TelcoState{IDT: "btelco-evil", Key: evilKey, Cert: evilCert, Terms: f.telco.Terms}

	reqU, _, err := f.ue.NewAttachRequest(f.telco.IDT) // bound to btelco-1
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := evil.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := f.broker.HandleRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("request bound to btelco-1 was granted to btelco-evil")
	}
	if !strings.Contains(resp.Cause, "mismatch") {
		t.Fatalf("cause = %q", resp.Cause)
	}
}

func TestSAPUncertifiedTelcoRejected(t *testing.T) {
	f := newFixture(t)
	otherCA, _ := pki.NewCAFromSeed("rogue-ca", bytes.Repeat([]byte{66}, 32))
	key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{10}, 32))
	cert := otherCA.Issue("btelco-x", "btelco", key.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))
	rogue := &TelcoState{IDT: "btelco-x", Key: key, Cert: cert, Terms: f.telco.Terms}

	reqU, _, _ := f.ue.NewAttachRequest("btelco-x")
	reqT, _ := rogue.ForwardRequest(reqU)
	resp, _, err := f.broker.HandleRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted {
		t.Fatal("bTelco certified by unknown CA was granted")
	}
}

func TestSAPExpiredCertRejected(t *testing.T) {
	f := newFixture(t)
	key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{11}, 32))
	cert := f.ca.Issue("btelco-old", "btelco", key.Public(), f.now.Add(-48*time.Hour), f.now.Add(-24*time.Hour))
	old := &TelcoState{IDT: "btelco-old", Key: key, Cert: cert, Terms: f.telco.Terms}
	reqU, _, _ := f.ue.NewAttachRequest("btelco-old")
	reqT, _ := old.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("expired certificate accepted")
	}
}

func TestSAPWrongRoleCertRejected(t *testing.T) {
	f := newFixture(t)
	key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{12}, 32))
	cert := f.ca.Issue("some-broker", "broker", key.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))
	imposter := &TelcoState{IDT: "some-broker", Key: key, Cert: cert, Terms: f.telco.Terms}
	reqU, _, _ := f.ue.NewAttachRequest("some-broker")
	reqT, _ := imposter.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("broker-role certificate accepted for a bTelco")
	}
}

func TestSAPUnknownUserRejected(t *testing.T) {
	f := newFixture(t)
	strangerKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{13}, 32))
	stranger := &UEState{
		IDU:       strangerKey.Public().Digest(),
		IDB:       f.broker.IDB,
		Key:       strangerKey,
		BrokerPub: f.broker.Key.Public(),
	}
	reqU, _, _ := stranger.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("unknown user granted")
	}
}

func TestSAPRevokedUserRejected(t *testing.T) {
	f := newFixture(t)
	f.broker.RevokeUser(f.ue.IDU)
	reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("revoked user granted")
	}
}

func TestSAPForgedUESignatureRejected(t *testing.T) {
	f := newFixture(t)
	reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqU.Sig[0] ^= 1
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("forged UE signature granted")
	}
}

func TestSAPTamperedTermsRejected(t *testing.T) {
	f := newFixture(t)
	reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	// Man-in-the-middle bumps the advertised price after signing.
	reqT.Terms.PricePerGB = 0.01
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("tampered terms accepted (signature should cover terms)")
	}
}

func TestSAPDenialByPolicy(t *testing.T) {
	f := newFixture(t)
	f.broker.Policy = AuthorizerFunc(func(idU, idT string, _ ServiceTerms) (qos.Params, error) {
		return qos.Params{}, errors.New("bTelco reputation too low")
	})
	reqU, pending, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, rec, err := f.broker.HandleRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted || rec != nil {
		t.Fatal("policy denial ignored")
	}
	if _, _, err := f.telco.HandleResponse(f.broker.Key.Public(), resp); !errors.Is(err, ErrDenied) {
		t.Fatalf("telco err=%v, want ErrDenied", err)
	}
	_ = pending
}

// One rule authenticates the broker to the UE, whichever kind of exchange
// the request rode: the reply opens on the UE's own pending sealer. No
// signature backs it up, so every forgery below fails at the open — the
// third party's carries a well-formed payload echoing the right nonce, idT
// and idU — and the genuine reply still opens afterwards.
func TestSAPUERejectsForgedResponse(t *testing.T) {
	thirdParty, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{9}, 32))
	if err != nil {
		t.Fatal(err)
	}
	forgeries := []struct {
		name string
		// forge returns the UE and the pending attach the forgery is
		// presented to, and the forgery.
		forge func(t *testing.T, f *fixture, ticketed bool, p *PendingAttach, genuine *AuthRespU) (*UEState, *PendingAttach, *AuthRespU)
	}{
		{"a flipped ciphertext byte", func(t *testing.T, f *fixture, _ bool, p *PendingAttach, genuine *AuthRespU) (*UEState, *PendingAttach, *AuthRespU) {
			box := append([]byte(nil), genuine.Sealed...)
			box[32+12] ^= 1 // the first byte after prefix and nonce
			return f.ue, p, &AuthRespU{Sealed: box}
		}},
		{"a box under a third party's key on the request's prefix", func(t *testing.T, f *fixture, _ bool, p *PendingAttach, _ *AuthRespU) (*UEState, *PendingAttach, *AuthRespU) {
			inner := innerRespU{IDU: f.ue.IDU, IDT: p.IDT, Nonce: p.Nonce}
			key := thirdParty.Pass([32]byte(p.Req.SealedVec[:32])) // the prefix is all anybody on the air sees
			s, err := pki.TicketSealer(key.Reply())
			if err != nil {
				t.Fatal(err)
			}
			box, err := s.Seal(inner.marshal())
			if err != nil || !bytes.Equal(box[:32], p.Req.SealedVec[:32]) {
				t.Fatalf("forging: %v", err)
			}
			return f.ue, p, &AuthRespU{Sealed: box}
		}},
		{"a reply to another pending attach", func(t *testing.T, f *fixture, ticketed bool, _ *PendingAttach, genuine *AuthRespU) (*UEState, *PendingAttach, *AuthRespU) {
			other := f.firstContact()
			if ticketed {
				f.oneAttach(t, other)
			}
			_, p := f.request(t, other, ticketed)
			return other, p, genuine
		}},
	}
	for _, ticketed := range []bool{false, true} {
		mode := map[bool]string{false: "signed", true: "ticketed"}[ticketed]
		for _, fg := range forgeries {
			t.Run(mode+"/"+fg.name, func(t *testing.T) {
				f := newFixture(t)
				if ticketed {
					f.oneAttach(t, f.ue)
				}
				reqU, p := f.request(t, f.ue, ticketed)
				_, genuine := f.exchange(t, reqU)
				u, at, forged := fg.forge(t, f, ticketed, p, genuine)
				if _, _, err := u.HandleResponse(at, forged); !errors.Is(err, pki.ErrDecrypt) {
					t.Fatalf("err = %v, want ErrDecrypt", err)
				}
				if _, _, err := f.ue.HandleResponse(p, genuine); err != nil {
					t.Fatalf("the genuine reply: %v", err)
				}
			})
		}
	}
}

func TestSAPUERejectsMismatchedNonce(t *testing.T) {
	f := newFixture(t)
	brokerPub := f.broker.Key.Public()
	reqU1, pending1, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT1, _ := f.telco.ForwardRequest(reqU1)
	v1, err := f.broker.Validate(reqT1)
	if err != nil || v1.DenyCause != "" {
		t.Fatalf("validate: %v %q", err, v1.DenyCause)
	}
	ss, uref, _ := MintSession()
	resp1, _, err := f.broker.Finalize(v1, qos.DefaultParams(), ss, uref)
	if err != nil {
		t.Fatal(err)
	}
	_, respU1, err := f.telco.HandleResponse(brokerPub, resp1)
	if err != nil {
		t.Fatal(err)
	}
	// A response cross-wired between two attaches does not even decrypt:
	// it is sealed on the first attach's exchange.
	_, pending2, _ := f.ue.NewAttachRequest(f.telco.IDT)
	if _, _, err := f.ue.HandleResponse(pending2, respU1); !errors.Is(err, pki.ErrDecrypt) {
		t.Fatalf("cross-wired response: err=%v, want ErrDecrypt", err)
	}
	// A response on the right exchange echoing the wrong nonce is refused
	// by the nonce check.
	wrong := *v1
	wrong.Vec.Nonce[0] ^= 1
	respW, _, err := f.broker.Finalize(&wrong, qos.DefaultParams(), ss, uref)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ue.HandleResponse(pending1, &respW.U); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("wrong nonce: err=%v, want ErrNonceMismatch", err)
	}
	// Correct pairing succeeds, and again: neither side consumed anything.
	for i := 0; i < 2; i++ {
		if got, _, err := f.ue.HandleResponse(pending1, respU1); err != nil || got != ss {
			t.Fatalf("pass %d: err=%v", i, err)
		}
	}
}

// A UE's exchange is created per attach: two requests of one UE share no
// prefix a bTelco could link them by (the paper's no-IMSI-catching
// property), except that a request abandoned unopened hands its ticket to
// the next one, once (DESIGN.md §2.8) — while everything the broker sends
// one bTelco rides one resident exchange.
func TestSAPAttachPrefixNeverRepeats(t *testing.T) {
	f := newFixture(t)
	seen := map[string]int{}       // prefix -> the attach that sent it
	abandoned := map[string]bool{} // prefixes whose request was never opened
	var telcoPrefix []byte
	for i := 0; i < 8; i++ {
		reqU, pending, err := f.ue.NewAttachRequest(f.telco.IDT)
		if err != nil {
			t.Fatal(err)
		}
		prefix := string(reqU.SealedVec[:32])
		if prev, dup := seen[prefix]; dup && !abandoned[prefix] {
			t.Fatalf("attach %d reuses the exchange of attach %d", i, prev)
		}
		delete(abandoned, prefix)
		seen[prefix] = i
		if i == 3 { // shed before the broker looked, and left for another bTelco
			if !f.ue.ReclaimTicket(pending) {
				t.Fatal("a ticketed request never opened handed nothing back")
			}
			abandoned[prefix] = true
			continue
		}
		reqT, _ := f.telco.ForwardRequest(reqU)
		resp, _, err := f.broker.HandleRequest(reqT)
		if err != nil || !resp.Granted {
			t.Fatalf("attach %d: %v %+v", i, err, resp)
		}
		if !bytes.Equal(resp.U.Sealed[:32], reqU.SealedVec[:32]) {
			t.Fatal("authRespU is not on the request's exchange")
		}
		if _, _, err := f.ue.HandleResponse(pending, &resp.U); err != nil {
			t.Fatal(err)
		}
		if telcoPrefix == nil {
			telcoPrefix = resp.T.Sealed[:32]
		} else if !bytes.Equal(telcoPrefix, resp.T.Sealed[:32]) {
			t.Fatal("broker ran a new exchange with a bTelco it already knows")
		}
	}
	if len(seen) != 7 {
		t.Fatalf("8 requests over %d prefixes, want 7: one reclaimed ticket, reused once", len(seen))
	}
}

func TestSAPTelcoRejectsGrantForOtherTelco(t *testing.T) {
	f := newFixture(t)
	reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)

	otherKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{14}, 32))
	otherCert := f.ca.Issue("btelco-2", "btelco", otherKey.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))
	other := &TelcoState{IDT: "btelco-2", Key: otherKey, Cert: otherCert, Terms: f.telco.Terms}
	if _, _, err := other.HandleResponse(f.broker.Key.Public(), resp); err == nil {
		t.Fatal("bTelco-2 accepted a grant sealed for bTelco-1")
	}
}

func TestSAPWrongBrokerAddress(t *testing.T) {
	f := newFixture(t)
	reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqU.IDB = "other-broker.example"
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	if resp.Granted {
		t.Fatal("request addressed to another broker was granted")
	}
}

func TestNonceCacheEviction(t *testing.T) {
	c := newNonceCache(4)
	mk := func(b byte) [NonceSize]byte {
		var n [NonceSize]byte
		n[0] = b
		return n
	}
	for i := byte(0); i < 4; i++ {
		if !c.add(mk(i)) {
			t.Fatalf("fresh nonce %d rejected", i)
		}
	}
	if c.add(mk(0)) {
		t.Fatal("duplicate accepted")
	}
	// Push one more: the oldest (0) is evicted and becomes acceptable
	// again (bounded-memory tradeoff).
	if !c.add(mk(4)) {
		t.Fatal("fresh nonce 4 rejected")
	}
	if !c.add(mk(0)) {
		t.Fatal("evicted nonce should be accepted again")
	}
}

func TestAuthVecCodecRoundTrip(t *testing.T) {
	v := AuthVec{IDU: "u1", IDB: "b1", IDT: "t1", Nonce: [16]byte{1, 2, 3}}
	var got AuthVec
	if err := got.unmarshal(v.marshal()); err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("roundtrip: %+v != %+v", got, v)
	}
}

func TestAuthReqTCodecRejectsTruncation(t *testing.T) {
	f := newFixture(t)
	reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	wire := reqT.Marshal()
	for _, cut := range []int{1, 5, len(wire) / 2, len(wire) - 1} {
		if _, err := UnmarshalAuthReqT(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// AuthReqT is encoded in one buffer; its bytes are those of the encoding it
// replaced, one Writer per nesting level and a copy into each parent, which
// this test keeps as the reference. The decoded message owns its bytes: it
// parses the nested encodings in place but copies every leaf.
func TestAuthReqTOneBufferSameBytes(t *testing.T) {
	f := newFixture(t)
	reqU, _, err := f.ue.NewAttachRequest(f.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	signedReq, err := f.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*AuthReqT{
		"signed":  signedReq,
		"no cert": {ReqU: *reqU, IDT: "t", Terms: f.telco.Terms, Sig: []byte("sig")},
		"empty":   {},
	} {
		ru := codec.NewWriter(0)
		ru.String(m.ReqU.IDB)
		ru.Bytes(m.ReqU.SealedVec)
		ru.Bytes(m.ReqU.Sig)
		if got := m.ReqU.Marshal(); !bytes.Equal(got, ru.Out()) || cap(got) != len(got) {
			t.Fatalf("%s: AuthReqU.Marshal: %d bytes in a buffer of %d, reference %d", name, len(got), cap(got), len(ru.Out()))
		}
		signed := codec.NewWriter(0)
		signed.Bytes(ru.Out())
		signed.String(m.IDT)
		marshalTerms(signed, m.Terms)
		if got := m.signedBytes(); !bytes.Equal(got, signed.Out()) || cap(got) != len(got) {
			t.Fatalf("%s: signedBytes: %d bytes in a buffer of %d, reference %d", name, len(got), cap(got), len(signed.Out()))
		}
		var cert []byte
		if c := m.Cert; c != nil {
			cw := codec.NewWriter(0)
			cw.String(c.Subject)
			cw.String(c.Role)
			cw.Bytes(c.Identity.Bytes())
			cw.Uint64(uint64(c.NotBefore.Unix()))
			cw.Uint64(uint64(c.NotAfter.Unix()))
			cw.Bytes(c.Signature)
			cert = cw.Out()
		}
		if len(cert)+4 > certLen {
			t.Fatalf("%s: a %d-byte certificate outgrows certLen", name, len(cert))
		}
		full := codec.NewWriter(0)
		full.Bytes(signed.Out())
		full.Bytes(cert)
		full.Bytes(m.Sig)
		wire := m.Marshal()
		if !bytes.Equal(wire, full.Out()) {
			t.Fatalf("%s: Marshal differs from the nested encoding", name)
		}

		got, err := UnmarshalAuthReqT(wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again := got.Marshal()
		for i := range wire {
			wire[i] = 0xEE
		}
		if !bytes.Equal(again, full.Out()) || !bytes.Equal(got.Marshal(), full.Out()) {
			t.Fatalf("%s: the decoded message aliases the buffer it was read from", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { signedReq.Marshal() }); n > 2 {
		t.Errorf("AuthReqT.Marshal: %v allocations, want its buffer and the flattened identity", n)
	}
}

// Property: the terms codec round-trips arbitrary capability shapes.
func TestPropertyTermsCodec(t *testing.T) {
	f := func(qcis []byte, dl, ul uint64, gbr, li bool, price float64) bool {
		if len(qcis) > 32 {
			qcis = qcis[:32]
		}
		terms := ServiceTerms{LawfulIntercept: li, PricePerGB: price}
		terms.Cap.MaxDLAmbrBps = dl
		terms.Cap.MaxULAmbrBps = ul
		terms.Cap.GBRSupported = gbr
		for _, q := range qcis {
			terms.Cap.QCIs = append(terms.Cap.QCIs, qos.QCI(q))
		}
		reqT := &AuthReqT{IDT: "t", Terms: terms}
		got, err := UnmarshalAuthReqT((&AuthReqT{ReqU: AuthReqU{IDB: "b"}, IDT: "t", Terms: terms}).Marshal())
		if err != nil {
			return false
		}
		_ = reqT
		if got.Terms.Cap.MaxDLAmbrBps != dl || got.Terms.Cap.MaxULAmbrBps != ul ||
			got.Terms.Cap.GBRSupported != gbr || got.Terms.LawfulIntercept != li {
			return false
		}
		if price == price && got.Terms.PricePerGB != price { // NaN-safe
			return false
		}
		if len(got.Terms.Cap.QCIs) != len(terms.Cap.QCIs) {
			return false
		}
		for i := range got.Terms.Cap.QCIs {
			if got.Terms.Cap.QCIs[i] != terms.Cap.QCIs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: no single-region corruption of a valid signed request can
// yield a grant — mutated requests either fail to parse or are denied.
func TestPropertyMutatedRequestNeverGranted(t *testing.T) {
	f := newFixture(t)
	reqU, _, err := f.ue.NewAttachRequest(f.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := f.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	wire := reqT.Marshal()

	check := func(offset uint16, val byte) bool {
		mut := append([]byte(nil), wire...)
		i := int(offset) % len(mut)
		if mut[i] == val {
			val ^= 0xFF
		}
		mut[i] = val
		parsed, err := UnmarshalAuthReqT(mut)
		if err != nil {
			return true // failed to parse: safe
		}
		resp, rec, err := f.broker.HandleRequest(parsed)
		if err != nil {
			return true // processing error: safe
		}
		// A mutation that leaves all authenticated fields bit-identical
		// can still verify (e.g. flipping a length byte that reassembles
		// identically); a grant is only a violation if some protected
		// content actually changed.
		if resp.Granted {
			return bytes.Equal(parsed.Marshal(), wire) && rec != nil
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: authRespU sealed for one UE can never be accepted by another.
func TestPropertyResponseNotTransferable(t *testing.T) {
	f := newFixture(t)
	// Register a second user.
	otherKey, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{111}, 32))
	if err != nil {
		t.Fatal(err)
	}
	otherID := f.broker.RegisterUser(otherKey.Public())
	other := &UEState{IDU: otherID, IDB: f.broker.IDB, Key: otherKey, BrokerPub: f.broker.Key.Public()}

	for i := 0; i < 10; i++ {
		reqU, _, _ := f.ue.NewAttachRequest(f.telco.IDT)
		reqT, _ := f.telco.ForwardRequest(reqU)
		resp, _, err := f.broker.HandleRequest(reqT)
		if err != nil || !resp.Granted {
			t.Fatal("setup attach failed")
		}
		_, respU, err := f.telco.HandleResponse(f.broker.Key.Public(), resp)
		if err != nil {
			t.Fatal(err)
		}
		// The other UE (with its own pending state) must reject it.
		_, otherPending, _ := other.NewAttachRequest(f.telco.IDT)
		if _, _, err := other.HandleResponse(otherPending, respU); err == nil {
			t.Fatal("authRespU accepted by a different UE")
		}
	}
}

// --- ticketed attaches (DESIGN.md §2.8) ---

// exchange carries a UE request through the bTelco to the broker and the
// reply back through the bTelco: the broker's answer and, for a grant, the
// authRespU inside it.
func (f *fixture) exchange(t *testing.T, reqU *AuthReqU) (*AuthResp, *AuthRespU) {
	t.Helper()
	reqT, err := f.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := f.broker.HandleRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		return resp, nil
	}
	_, respU, err := f.telco.HandleResponse(f.broker.Key.Public(), resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, respU
}

// firstContact is the fixture UE's SIM as it left the broker: same identity,
// no ticket.
func (f *fixture) firstContact() *UEState {
	return &UEState{IDU: f.ue.IDU, IDB: f.ue.IDB, Key: f.ue.Key, BrokerPub: f.ue.BrokerPub}
}

// macd is the bTelco's forward of reqU, asserting it went out under a pass.
func (f *fixture) macd(t *testing.T, reqU *AuthReqU) *AuthReqT {
	t.Helper()
	reqT, err := f.telco.ForwardRequest(reqU)
	if err != nil || len(reqT.Sig) != telcoMACSize {
		t.Fatalf("forward: %v, %d-byte Sig, want a pass MAC", err, len(reqT.Sig))
	}
	return reqT
}

// answer is the broker's reply to reqT, grant or denial.
func (f *fixture) answer(t *testing.T, reqT *AuthReqT) *AuthResp {
	t.Helper()
	resp, _, err := f.broker.HandleRequest(reqT)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// request is NewAttachRequest, asserting the mode the UE chose.
func (f *fixture) request(t *testing.T, u *UEState, wantTicketed bool) (*AuthReqU, *PendingAttach) {
	t.Helper()
	reqU, p, err := u.NewAttachRequest(f.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	if (p.spent != nil) != wantTicketed || (len(reqU.Sig) == 0) != wantTicketed {
		t.Fatalf("attach ticketed=%v with a %d-byte signature, want ticketed=%v", p.spent != nil, len(reqU.Sig), wantTicketed)
	}
	return reqU, p
}

// The first attach is the paper's handshake on both legs; every one after a
// grant rides the ticket and the pass that grant carried: no UE signature
// out, a 32-byte MAC for the bTelco's, no broker signature on authRespT back
// (authRespU never carries one), and the same agreement on ss and URef (runAttach checks
// those). Until PR 20 this test asserted that authRespT stayed signed in
// steady state; that signature is now a receipt per 256 grants (DESIGN.md
// §2.9).
func TestTicketedAttachAfterFirstContact(t *testing.T) {
	f := newFixture(t)
	brokerPub := f.broker.Key.Public()
	signedReq, _ := f.request(t, f.ue, false)
	signedT, err := f.telco.ForwardRequest(signedReq)
	if err != nil || len(signedT.Sig) != 64 {
		t.Fatalf("first forward: %v, %d-byte Sig, want the bTelco's signature", err, len(signedT.Sig))
	}
	f.runAttach(t) // first contact of the UE that just wasted a request: still signed, no ticket yet
	digest := f.telco.Cert.Digest()
	for i := 0; i < 3; i++ {
		reqU, p := f.request(t, f.ue, true)
		if got, want := len(reqU.Marshal()), len(signedReq.Marshal())-64; got != want {
			t.Fatalf("ticketed authReqU is %d bytes, want the signed one less its signature (%d)", got, want)
		}
		if !f.broker.Key.TicketBound(reqU.SealedVec, f.ue.IDU) {
			t.Fatal("the request's prefix is not a locator minted for this UE")
		}
		reqT, err := f.telco.ForwardRequest(reqU)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(reqT.Marshal()), len(signedT.Marshal())-64-32; len(reqT.Sig) != 32 || got != want {
			t.Fatalf("authReqT carries a %d-byte Sig in %d bytes, want a 32-byte MAC in %d", len(reqT.Sig), got, want)
		}
		resp, _, err := f.broker.HandleRequest(reqT)
		if err != nil || !resp.Granted {
			t.Fatalf("attach %d: %v %+v", i, err, resp)
		}
		if len(resp.T.Sig) != 0 || !bytes.Equal(resp.T.Sealed[:32], digest[:]) {
			t.Fatalf("attach %d: authRespT sig %d B, authRespT on the certificate digest: %v",
				i, len(resp.T.Sig), bytes.Equal(resp.T.Sealed[:32], digest[:]))
		}
		grant, respU, err := f.telco.HandleResponse(brokerPub, resp)
		if err != nil {
			t.Fatal(err)
		}
		if _, uref, err := f.ue.HandleResponse(p, respU); err != nil || uref != grant.URef {
			t.Fatalf("UE: %v, URef %q vs the bTelco's %q", err, uref, grant.URef)
		}
	}
	if _, unreceipted := f.telco.Receipts(f.broker.IDB); unreceipted != 3 {
		t.Fatalf("%d grants await a receipt, want the 3 MAC-mode ones", unreceipted)
	}
}

// Every way a ticket or a pass can be misused ends in a denial or a refusal
// at the UE or the bTelco, and whatever happened the honest UE's next attach
// through the honest bTelco is granted — signed again on the leg whose
// ticket was spent, or whose pass was dropped, on the attempt.
func TestTicketedAttachDenyLadder(t *testing.T) {
	otherBroker := func(f *fixture, seed byte) {
		key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{seed}, 32))
		f.broker = NewBrokerState(f.broker.IDB, key, f.ca.Public(), nil, func() time.Time { return f.now })
		f.broker.RegisterUser(f.ue.Key.Public())
		f.ue.BrokerPub = key.Public()
	}
	for _, tc := range []struct {
		name string
		// run misuses the primed fixture (the UE holds a ticket, the bTelco
		// a pass) and returns the broker's answer or the UE's or bTelco's
		// refusal.
		run       func(t *testing.T, f *fixture) (*AuthResp, error)
		wantCause string // substring of the broker's denial; "" with wantErr nil = granted
		wantErr   error  // the UE's, or the bTelco's, refusal
		spent     bool   // the honest UE's ticket went on the attempt
	}{
		{name: "locator replayed without its key", wantCause: "undecryptable", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				seen, _ := f.request(t, f.ue, true) // what a bTelco or the air interface sees
				forged := &AuthReqU{IDB: seen.IDB, SealedVec: append([]byte(nil), seen.SealedVec...)}
				rand.Read(forged.SealedVec[32:])
				resp, _ := f.exchange(t, forged)
				return resp, nil
			}},
		{name: "ticket minted for user A with idU B inside the vector", wantCause: "ticket invalid", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				victim, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{111}, 32))
				evil := &UEState{IDU: f.broker.RegisterUser(victim.Public()), IDB: f.ue.IDB, Key: f.ue.Key, BrokerPub: f.ue.BrokerPub}
				evil.ticket.Store(f.ue.ticket.Swap((*pki.Ticket)(nil)))
				reqU, _ := f.request(t, evil, true)
				resp, _ := f.exchange(t, reqU)
				return resp, nil
			}},
		{name: "ticket after RevokeUser", wantCause: "revoked", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				f.broker.RevokeUser(f.ue.IDU)
				reqU, _ := f.request(t, f.ue, true)
				resp, _ := f.exchange(t, reqU)
				f.broker.mu.Lock()
				delete(f.broker.revoked, f.ue.IDU) // reinstated, so the ladder's last rung can run
				f.broker.mu.Unlock()
				return resp, nil
			}},
		// Until PR 20 the shared bTelco forwarded this one signed and the
		// broker failed at the ticket; now the bTelco's own stale pass fails
		// first (next row), so the ticket's row goes through a bTelco that
		// holds no pass.
		{name: "ticket presented to a broker built from a different seed", wantCause: "undecryptable", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				otherBroker(f, 101)
				f.telco.DropPasses()
				reqU, _ := f.request(t, f.ue, true)
				resp, _ := f.exchange(t, reqU)
				return resp, nil
			}},
		{name: "pass presented to a broker built from a different seed: denied once, dropped, re-forwarded signed", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				otherBroker(f, 101)
				forgetTicket(f.ue) // minted by the old broker; its own row is above
				reqU, p := f.request(t, f.ue, false)
				resp := f.answer(t, f.macd(t, reqU))
				if resp.Granted || resp.Cause != causeTelcoMAC {
					t.Fatalf("stale pass: granted=%v cause=%q", resp.Granted, resp.Cause)
				}
				if _, _, err := f.telco.HandleResponse(f.broker.Key.Public(), resp); !errors.Is(err, ErrStalePass) || !errors.Is(err, ErrDenied) {
					t.Fatalf("bTelco on the refusal: %v", err)
				}
				// The same reqU again: the refusal came before the replay
				// filter, and the bTelco now signs.
				resp, respU := f.exchange(t, reqU)
				if respU == nil {
					return resp, nil
				}
				_, _, err := f.ue.HandleResponse(p, respU)
				forgetTicket(f.ue) // the last rung expects none
				return resp, err
			}},
		{name: "MAC under another bTelco's pass", wantCause: causeTelcoMAC, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{9}, 32))
				cert := f.ca.Issue("btelco-evil", "btelco", key.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))
				evilPass := f.broker.Key.Pass(cert.Digest()) // what btelco-evil's own handshake would fetch
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				tag := evilPass.Tag(authReqMACLabel, reqT.signedBytes())
				reqT.Sig = tag[:]
				return f.answer(t, reqT), nil
			}},
		{name: "MAC'd request with a different, valid certificate", wantCause: causeTelcoMAC, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				reqT.Cert = f.ca.Issue(f.telco.IDT, "btelco", f.telco.Key.Public(), f.now.Add(-time.Minute), f.now.Add(time.Hour))
				return f.answer(t, reqT), nil
			}},
		{name: "expired certificate with a valid MAC", wantCause: "certificate invalid", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				f.broker.now = func() time.Time { return f.now.Add(48 * time.Hour) }
				resp := f.answer(t, reqT)
				f.broker.now = func() time.Time { return f.now }
				return resp, nil
			}},
		{name: "policy denies a request with a valid MAC", wantCause: "authorization denied", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				f.broker.Policy = AuthorizerFunc(func(string, string, ServiceTerms) (qos.Params, error) {
					return qos.Params{}, errors.New("bTelco quarantined")
				})
				resp := f.answer(t, reqT)
				f.broker.Policy = AcceptAll()
				return resp, nil
			}},
		{name: "pass MAC truncated to 31 bytes", wantCause: "signature invalid", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				reqT.Sig = reqT.Sig[:31]
				return f.answer(t, reqT), nil
			}},
		{name: "pass MAC with a 33rd byte", wantCause: "signature invalid", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				reqT.Sig = append(reqT.Sig, 0)
				return f.answer(t, reqT), nil
			}},
		{name: "signature-length garbage where the MAC goes", wantCause: "signature invalid", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT := f.macd(t, reqU)
				reqT.Sig = bytes.Repeat([]byte{0x5a}, 64)
				return f.answer(t, reqT), nil
			}},
		{name: "signed-mode authRespT with its signature stripped", wantErr: pki.ErrDecrypt, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				reqT, _ := f.passless().ForwardRequest(reqU) // signed, so the answer is
				resp := f.answer(t, reqT)
				if len(resp.T.Sig) == 0 {
					t.Fatal("the answer to a signed authReqT is unsigned")
				}
				resp.T.Sig = nil
				_, _, err := f.telco.HandleResponse(f.broker.Key.Public(), resp) // holds this broker's pass
				return resp, err
			}},
		{name: "unsigned authRespT at a bTelco that holds no pass", wantErr: pki.ErrBadSignature, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				resp := f.answer(t, f.macd(t, reqU))
				_, _, err := f.passless().HandleResponse(f.broker.Key.Public(), resp)
				return resp, err
			}},
		{name: "MAC-mode authRespT presented under a different brokerPub", wantErr: pki.ErrBadSignature, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				other, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{102}, 32))
				reqU, _ := f.request(t, f.ue, true)
				resp := f.answer(t, f.macd(t, reqU))
				_, _, err := f.telco.HandleResponse(other.Public(), resp)
				return resp, err
			}},
		{name: "a broker naming another broker's idB in its grant cannot displace a held pass",
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				// broker.m is certified, reachable and malicious: the grant it
				// seals for this bTelco claims to come from f.broker.
				mKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{103}, 32))
				m := NewBrokerState("broker.m", mKey, f.ca.Public(), nil, func() time.Time { return f.now })
				sub := &UEState{IDU: m.RegisterUser(f.ue.Key.Public()), IDB: m.IDB, Key: f.ue.Key, BrokerPub: mKey.Public()}
				reqU, _, _ := sub.NewAttachRequest(f.telco.IDT)
				reqT, _ := f.telco.ForwardRequest(reqU)
				v, err := m.Validate(reqT)
				if err != nil || v.DenyCause != "" || len(reqT.Sig) != 64 {
					t.Fatalf("first contact with broker.m: %v %q, %d-byte Sig", err, v.DenyCause, len(reqT.Sig))
				}
				m.IDB = f.broker.IDB
				ss, uref, _ := MintSession()
				resp, _, err := m.Finalize(v, qos.DefaultParams(), ss, uref)
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = f.telco.HandleResponse(mKey.Public(), resp) // a genuine grant of broker.m's
				return resp, err
			}},
		{name: "forged bTelco MAC invalid denial only costs a signed handshake",
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				forged := &AuthResp{Cause: causeTelcoMAC}
				if _, _, err := f.telco.HandleResponse(f.broker.Key.Public(), forged); !errors.Is(err, ErrStalePass) {
					t.Fatalf("bTelco on the forged denial: %v", err)
				}
				fresh := f.firstContact()
				reqU, _ := f.request(t, fresh, false)
				reqT, _ := f.telco.ForwardRequest(reqU)
				if len(reqT.Sig) != 64 {
					t.Fatalf("the forward after a dropped pass carries a %d-byte Sig", len(reqT.Sig))
				}
				resp, _ := f.exchange(t, reqU) // granted, signed — and the pass is back
				return resp, nil
			}},
		{name: "ticket presented to a broker rebuilt from the same seed", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				otherBroker(f, 1) // newFixture's broker seed: no memo, no table, same secret
				reqU, p := f.request(t, f.ue, true)
				resp, respU := f.exchange(t, reqU)
				if respU == nil {
					return resp, nil
				}
				_, _, err := f.ue.HandleResponse(p, respU)
				f.ue.ticket.Store((*pki.Ticket)(nil)) // drop the new ticket: the last rung expects none
				return resp, err
			}},
		{name: "signed request with its signature stripped", wantCause: "ticket invalid",
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				fresh := f.firstContact()
				reqU, _ := f.request(t, fresh, false)
				reqU.Sig = nil
				resp, _ := f.exchange(t, reqU)
				return resp, nil
			}},
		{name: "ticketed request replayed", wantCause: "replay", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				if resp, _ := f.exchange(t, reqU); !resp.Granted {
					t.Fatalf("first delivery denied: %s", resp.Cause)
				}
				resp, _ := f.exchange(t, reqU)
				return resp, nil
			}},
		{name: "ticketed request forwarded by another bTelco", wantCause: "mismatch", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, _ := f.request(t, f.ue, true)
				key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{9}, 32))
				honest := f.telco
				f.telco = &TelcoState{IDT: "btelco-evil", Key: key, Terms: honest.Terms,
					Cert: f.ca.Issue("btelco-evil", "btelco", key.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))}
				resp, _ := f.exchange(t, reqU)
				f.telco = honest
				return resp, nil
			}},
		{name: "signed-mode response opens only on its exchange", wantErr: pki.ErrDecrypt,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				fresh := f.firstContact()
				reqU, p := f.request(t, fresh, false)
				_, other := f.request(t, fresh, false) // a second first contact, pending beside it
				resp, respU := f.exchange(t, reqU)
				_, _, err := fresh.HandleResponse(other, respU)
				if _, _, err := fresh.HandleResponse(p, respU); err != nil {
					t.Fatalf("on its own exchange: %v", err)
				}
				return resp, err
			}},
		{name: "ticketed response cross-wired between two attaches", wantErr: pki.ErrDecrypt, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				req1, p1 := f.request(t, f.ue, true)
				resp, respU1 := f.exchange(t, req1)
				if _, _, err := f.ue.HandleResponse(p1, respU1); err != nil {
					t.Fatal(err)
				}
				_, p2 := f.request(t, f.ue, true)
				_, _, err := f.ue.HandleResponse(p2, respU1)
				return resp, err
			}},
		{name: "ticketed response tampered", wantErr: pki.ErrDecrypt, spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, p := f.request(t, f.ue, true)
				resp, respU := f.exchange(t, reqU)
				respU.Sealed[len(respU.Sealed)-1] ^= 1
				_, _, err := f.ue.HandleResponse(p, respU)
				return resp, err
			}},
		{name: "response replayed after its ticket was spent", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				req1, p1 := f.request(t, f.ue, true)
				resp, respU1 := f.exchange(t, req1)
				if _, _, err := f.ue.HandleResponse(p1, respU1); err != nil {
					t.Fatal(err)
				}
				f.request(t, f.ue, true)                     // spends the ticket respU1 carried, then is lost
				_, _, err := f.ue.HandleResponse(p1, respU1) // accepted again, arms nothing
				return resp, err
			}},
		// Reclaim (DESIGN.md §2.8): the ticket of a request nobody opened
		// comes back, once, to a UE holding none, and the next request rides
		// it under a fresh nonce.
		{name: "ticket reclaimed from a request never opened",
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				abandoned, p1 := f.request(t, f.ue, true)
				if !f.ue.ReclaimTicket(p1) {
					t.Fatal("nothing came back")
				}
				reqU, p2 := f.request(t, f.ue, true)
				if !bytes.Equal(reqU.SealedVec[:32], abandoned.SealedVec[:32]) || bytes.Equal(reqU.SealedVec, abandoned.SealedVec) {
					t.Fatal("the reclaimed ticket's request is not a new box on the same locator")
				}
				if f.ue.ReclaimTicket(p1) {
					t.Fatal("one request handed its ticket back twice")
				}
				resp, respU := f.exchange(t, reqU)
				if !resp.Granted {
					return resp, nil
				}
				_, _, err := f.ue.HandleResponse(p2, respU)
				return resp, err
			}},
		{name: "reclaim after a grant hands nothing back", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				reqU, p := f.request(t, f.ue, true)
				resp, respU := f.exchange(t, reqU)
				if _, _, err := f.ue.HandleResponse(p, respU); err != nil {
					t.Fatal(err)
				}
				forgetTicket(f.ue) // even to a UE that holds none: the rung below expects none
				if f.ue.ReclaimTicket(p) {
					t.Fatal("a granted request handed its ticket back")
				}
				return resp, nil
			}},
		{name: "a newer ticket wins over a reclaimed one",
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				_, p1 := f.request(t, f.ue, true)
				reqU, p2 := f.request(t, f.ue, false) // the UE holds none: first contact again
				resp, respU := f.exchange(t, reqU)
				if _, _, err := f.ue.HandleResponse(p2, respU); err != nil {
					t.Fatal(err)
				}
				newer := f.ue.ticket.Load()
				if f.ue.ReclaimTicket(p1) || f.ue.ticket.Load() != newer {
					t.Fatal("a reclaim displaced the newer ticket")
				}
				return resp, nil
			}},
		{name: "a signed request reclaims nothing", spent: true,
			run: func(t *testing.T, f *fixture) (*AuthResp, error) {
				forgetTicket(f.ue)
				reqU, p := f.request(t, f.ue, false)
				if f.ue.ReclaimTicket(p) {
					t.Fatal("a signed request handed a ticket back")
				}
				resp, _ := f.exchange(t, reqU)
				return resp, nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.runAttach(t) // first contact: the UE now holds a ticket
			resp, err := tc.run(t, f)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("UE err = %v, want %v", err, tc.wantErr)
			}
			if granted := tc.wantCause == ""; resp.Granted != granted || !strings.Contains(resp.Cause, tc.wantCause) {
				t.Fatalf("broker: granted=%v cause=%q, want granted=%v cause ~ %q", resp.Granted, resp.Cause, granted, tc.wantCause)
			}
			// The last rung: the full signed handshake when the ticket is gone.
			reqU, p := f.request(t, f.ue, !tc.spent)
			resp, respU := f.exchange(t, reqU)
			if !resp.Granted {
				t.Fatalf("the attach after: denied, %s", resp.Cause)
			}
			if _, _, err := f.ue.HandleResponse(p, respU); err != nil {
				t.Fatalf("the attach after: %v", err)
			}
			reqU, _ = f.request(t, f.ue, true) // and that grant armed the next ticket
			f.macd(t, reqU)                    // and left the bTelco holding the broker's pass
		})
	}
}

// Two goroutines attaching on one UEState, each abandoning every fifth
// request unopened: a ticket goes to exactly one of them at a time, so a
// prefix is emitted again only by the one request that rode the ticket
// reclaimed from an abandoned one.
func TestUEStateConcurrentAttachesNeverShareATicket(t *testing.T) {
	f := newFixture(t)
	var mu sync.Mutex
	emitted, abandoned := map[string]int{}, map[string]bool{}
	sent, ticketed, reclaimed := 0, 0, 0
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				reqU, p, err := f.ue.NewAttachRequest(f.telco.IDT)
				if err != nil {
					t.Error(err)
					return
				}
				prefix := string(reqU.SealedVec[:32])
				abandon := i%5 == 4 && p.spent != nil
				mu.Lock()
				if emitted[prefix] > 0 && !abandoned[prefix] {
					t.Error("one prefix emitted twice without a reclaim between")
				}
				delete(abandoned, prefix)
				emitted[prefix]++
				if p.spent != nil {
					ticketed++
				}
				if abandon { // marked before the ticket is back, where the other goroutine can take it
					abandoned[prefix] = true
				}
				mu.Unlock()
				if abandon {
					if f.ue.ReclaimTicket(p) {
						mu.Lock()
						reclaimed++
						mu.Unlock()
					}
					continue
				}
				reqT, err := f.telco.ForwardRequest(reqU)
				if err != nil {
					t.Error(err)
					return
				}
				resp, _, err := f.broker.HandleRequest(reqT)
				if err != nil || !resp.Granted {
					t.Errorf("attach: %v %+v", err, resp)
					return
				}
				if _, _, err := f.ue.HandleResponse(p, &resp.U); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				sent++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	repeats := 0
	for _, n := range emitted {
		repeats += n - 1
	}
	if repeats > reclaimed || sent == 0 || ticketed == 0 || reclaimed == 0 {
		t.Fatalf("%d repeated prefixes for %d reclaimed tickets; %d granted, %d ticketed", repeats, reclaimed, sent, ticketed)
	}
}

// A QCI count no capability can have is a decode error, not a clamp that
// lets the shifted remainder reach the signature check.
func TestAuthReqTCodecRejectsBadQCICount(t *testing.T) {
	wire := func(count uint32, qcis int) []byte {
		signed := codec.NewWriter(128)
		signed.Bytes((&AuthReqU{IDB: "b"}).Marshal())
		signed.String("t")
		signed.Uint32(count)
		for i := 0; i < qcis; i++ {
			signed.Byte(9)
		}
		signed.Uint64(1)
		signed.Uint64(1)
		signed.Bool(true)
		signed.Bool(false)
		signed.Float64(1)
		w := codec.NewWriter(256)
		w.Bytes(signed.Out())
		w.Bytes(nil)
		w.Bytes(nil)
		return w.Out()
	}
	for _, tc := range []struct {
		name        string
		count       uint32
		qcis        int
		want        error
		wantDecoded int
	}{
		{"64 is the most a capability holds", 64, 64, nil, 64},
		{"65", 65, 65, ErrBadRequest, 0},
		{"2^32-1", math.MaxUint32, 3, ErrBadRequest, 0},
		{"truncated: 3 announced, 2 present", 3, 2, codec.ErrShort, 0},
	} {
		m, err := UnmarshalAuthReqT(wire(tc.count, tc.qcis))
		if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil && len(m.Terms.Cap.QCIs) != tc.wantDecoded {
			t.Errorf("%s: decoded %d QCIs", tc.name, len(m.Terms.Cap.QCIs))
		}
	}
}
