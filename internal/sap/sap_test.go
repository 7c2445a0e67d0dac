package sap

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

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

func newFixture(t *testing.T) *fixture {
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

func TestSAPUERejectsForgedResponse(t *testing.T) {
	f := newFixture(t)
	reqU, pending, _ := f.ue.NewAttachRequest(f.telco.IDT)
	reqT, _ := f.telco.ForwardRequest(reqU)
	resp, _, _ := f.broker.HandleRequest(reqT)
	_, respU, err := f.telco.HandleResponse(f.broker.Key.Public(), resp)
	if err != nil {
		t.Fatal(err)
	}
	forged := &AuthRespU{Sealed: respU.Sealed, Sig: append([]byte(nil), respU.Sig...)}
	forged.Sig[2] ^= 0xFF
	if _, _, err := f.ue.HandleResponse(pending, forged); err == nil {
		t.Fatal("UE accepted forged broker signature")
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

// A UE's exchange is created per attach and never reused: two requests of
// one UE share no prefix a bTelco could link them by (the paper's
// no-IMSI-catching property), while everything the broker sends one bTelco
// rides one resident exchange.
func TestSAPAttachPrefixNeverRepeats(t *testing.T) {
	f := newFixture(t)
	seen := map[string]bool{}
	var telcoPrefix []byte
	for i := 0; i < 8; i++ {
		reqU, pending, err := f.ue.NewAttachRequest(f.telco.IDT)
		if err != nil {
			t.Fatal(err)
		}
		prefix := string(reqU.SealedVec[:32])
		if seen[prefix] {
			t.Fatalf("attach %d reuses an earlier attach's exchange", i)
		}
		seen[prefix] = true
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
