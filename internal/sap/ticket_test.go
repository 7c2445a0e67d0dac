package sap

import (
	"bytes"
	"crypto/rand"
	"testing"

	"cellbricks/internal/pki"
)

// oneAttach runs UE request → bTelco forward → broker Validate / Decide /
// Finalize → UE response on u, in whichever mode u's state selects. The
// bTelco never sees the response, so it never learns a pass and its leg is
// the signed one every time.
func (f *fixture) oneAttach(tb testing.TB, u *UEState) { f.attach(tb, u, false) }

// fullAttach is oneAttach with the bTelco's HandleResponse in the path, as
// an AGW runs it: after one of these the bTelco leg is MAC'd too.
func (f *fixture) fullAttach(tb testing.TB, u *UEState) { f.attach(tb, u, true) }

func (f *fixture) attach(tb testing.TB, u *UEState, telcoResponse bool) {
	reqU, p, err := u.NewAttachRequest(f.telco.IDT)
	if err != nil {
		tb.Fatal(err)
	}
	reqT, err := f.telco.ForwardRequest(reqU)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := f.broker.Validate(reqT)
	if err != nil || v.DenyCause != "" {
		tb.Fatalf("validate: %v %q", err, v.DenyCause)
	}
	params, cause := f.broker.Decide(v, nil)
	if cause != "" {
		tb.Fatal(cause)
	}
	ss, uref, err := MintSession()
	if err != nil {
		tb.Fatal(err)
	}
	resp, _, err := f.broker.Finalize(v, params, ss, uref)
	if err != nil {
		tb.Fatal(err)
	}
	respU := &resp.U
	if telcoResponse {
		if _, respU, err = f.telco.HandleResponse(f.broker.Key.Public(), resp); err != nil {
			tb.Fatal(err)
		}
	}
	if _, _, err := u.HandleResponse(p, respU); err != nil {
		tb.Fatal(err)
	}
}

// forgetTicket makes u's next attach first contact again.
func forgetTicket(u *UEState) { u.ticket.Store((*pki.Ticket)(nil)) }

// passless is f's bTelco as it was certified: same identity, no pass.
func (f *fixture) passless() *TelcoState {
	return &TelcoState{IDT: f.telco.IDT, Key: f.telco.Key, Cert: f.telco.Cert, Terms: f.telco.Terms}
}

// The benchmark bounds allocs_per_op at 2 %: a ticketed attach must not pay
// for its saved signatures in heap objects (hmac.New per derivation and
// ticket exchanges bypassing the Open memo once did: +6 %).
func TestTicketedAttachAllocs(t *testing.T) {
	f := newFixture(t)
	f.oneAttach(t, f.ue) // warm: certificate cache, resident sealer, memo map
	signed := testing.AllocsPerRun(50, func() {
		forgetTicket(f.ue)
		f.oneAttach(t, f.ue)
	})
	ticketed := testing.AllocsPerRun(50, func() { f.oneAttach(t, f.ue) })
	t.Logf("allocs per attach: signed %.0f, ticketed %.0f", signed, ticketed)
	if ticketed > signed {
		t.Fatalf("a ticketed attach allocates %.0f objects, a signed one %.0f", ticketed, signed)
	}
}

// The same bound for the bTelco leg, over the whole exchange an AGW runs
// (fullAttach). The numbers are the parent commit's for the same loop: a
// steady-state attach there — ticketed UE, signed bTelco — was 57 objects,
// and a first contact through a bTelco that has never met the broker (what
// a drive's every new cell is) 88. The pass may cost first contact the two
// objects of the bTelco's table entry and must cost steady state nothing: a
// second hash of the certificate, an AES-GCM instance per authRespT, or the
// pass marshalled into every grant each showed up here first.
func TestSymmetricAttachAllocs(t *testing.T) {
	const parentSteady, parentFirstContact = 57, 88
	f := newFixture(t)
	f.fullAttach(t, f.ue)
	steady := testing.AllocsPerRun(50, func() { f.fullAttach(t, f.ue) })
	first := testing.AllocsPerRun(50, func() {
		forgetTicket(f.ue)
		f.telco = f.passless()
		f.fullAttach(t, f.ue)
	})
	t.Logf("allocs per attach: pass + ticket %.0f (parent %d), first contact %.0f (parent %d)", steady, parentSteady, first, parentFirstContact)
	if steady > parentSteady {
		t.Errorf("a symmetric attach allocates %.0f objects; the parent's ticketed one, bTelco leg signed, %d", steady, parentSteady)
	}
	if first > parentFirstContact+2 {
		t.Errorf("a first-contact attach allocates %.0f objects, parent %d + 2 allowed", first, parentFirstContact)
	}
}

// BenchmarkAttachTicketed prices one attach's SAP procedures: first contact,
// the UE leg on a ticket (the bTelco leg signed: oneAttach's bTelco never
// handles a response), and both legs symmetric, which drives the bTelco's
// HandleResponse too.
func BenchmarkAttachTicketed(b *testing.B) {
	for _, mode := range []struct {
		name         string
		signed, full bool
	}{{"signed", true, false}, {"ticketed", false, false}, {"symmetric", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			f := newFixture(b)
			f.attach(b, f.ue, mode.full)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.signed {
					forgetTicket(f.ue)
				}
				f.attach(b, f.ue, mode.full)
			}
		})
	}
}

// FuzzValidate feeds another party's bytes to the broker's decoder and its
// stateless checks. The seed corpus under testdata/fuzz/FuzzValidate
// (requests of newFixture's principals in all four combinations of signed /
// ticketed UE leg and signed / MAC'd bTelco leg, and manglings of each) runs
// on every plain `go test`. Whatever comes in: no panic, nothing decoded is
// larger than the input, and Validate passes a request only if the bTelco's
// signature or a MAC under its certificate's pass authenticated the forward
// and the UE's signature or a ticket bound to the named idU the vector.
func FuzzValidate(f *testing.F) {
	fx := newFixture(f)
	// A second subscriber, so that a ticket naming somebody else reaches the
	// binding check (the corpus has one) instead of "unknown user".
	second, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{111}, 32))
	if err != nil {
		f.Fatal(err)
	}
	users := map[string]pki.PublicIdentity{
		fx.ue.IDU:                               fx.ue.Key.Public(),
		fx.broker.RegisterUser(second.Public()): second.Public(),
	}
	fx.fullAttach(f, fx.ue)
	for _, telco := range []*TelcoState{fx.passless(), fx.telco} {
		for _, ticketed := range []bool{false, true} {
			if !ticketed {
				forgetTicket(fx.ue)
			}
			reqU, _, err := fx.ue.NewAttachRequest(telco.IDT)
			if err != nil {
				f.Fatal(err)
			}
			reqT, err := telco.ForwardRequest(reqU)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(reqT.Marshal())
			fx.fullAttach(f, fx.ue) // the next request's ticket
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		req, err := UnmarshalAuthReqT(wire)
		if err != nil {
			return
		}
		if n := len(req.ReqU.SealedVec) + len(req.ReqU.Sig) + len(req.Sig) + len(req.Terms.Cap.QCIs); n > len(wire) {
			t.Fatalf("%d bytes decoded to %d", len(wire), n)
		}
		v, err := fx.broker.Validate(req)
		if err != nil || v.DenyCause != "" {
			return
		}
		telcoSigned := req.Cert.Identity.Verify(req.signedBytes(), req.Sig) == nil
		pass := fx.broker.Key.Pass(req.Cert.Digest())
		tag := pass.Tag(authReqMACLabel, req.signedBytes())
		if !telcoSigned && !bytes.Equal(tag[:], req.Sig) {
			t.Fatalf("passed for %q with neither the bTelco's signature nor its pass MAC", req.IDT)
		}
		signed := users[v.Vec.IDU].Verify(req.ReqU.SealedVec, req.ReqU.Sig) == nil
		bound := len(req.ReqU.Sig) == 0 && fx.broker.Key.TicketBound(req.ReqU.SealedVec, v.Vec.IDU)
		if !signed && !bound {
			t.Fatalf("passed for %q with neither a signature nor a bound ticket", v.Vec.IDU)
		}
	})
}

// FuzzTelcoHandleResponse feeds a broker's — or anybody's — reply bytes to
// the bTelco's decoder and its second procedure, at a bTelco that holds the
// fixture broker's pass. The checked-in corpus under
// testdata/fuzz/FuzzTelcoHandleResponse has a signed grant, a MAC-mode grant,
// a denial, a refused MAC, a signed grant with its signature stripped, and
// grants of another broker in both modes. Whatever comes in: no panic,
// nothing decoded is larger than the input, and a Grant comes back only if
// the broker's signature, or the pass held from that broker, authenticated
// authRespT.
func FuzzTelcoHandleResponse(f *testing.F) {
	fx := newFixture(f)
	brokerPub := fx.broker.Key.Public()
	for i := 0; i < 2; i++ { // a signed grant, then a MAC-mode one
		reqU, _, err := fx.ue.NewAttachRequest(fx.telco.IDT)
		if err != nil {
			f.Fatal(err)
		}
		reqT, _ := fx.telco.ForwardRequest(reqU)
		resp, _, err := fx.broker.HandleRequest(reqT)
		if err != nil || !resp.Granted {
			f.Fatalf("seed attach: %v %+v", err, resp)
		}
		if _, _, err := fx.telco.HandleResponse(brokerPub, resp); err != nil {
			f.Fatal(err)
		}
		f.Add(resp.Marshal())
	}
	// What the pass opens, checked without the code under test.
	opener, err := pki.TicketSealer(fx.broker.Key.Pass(fx.telco.Cert.Digest()))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		resp, err := UnmarshalAuthResp(wire)
		if err != nil {
			return
		}
		if n := len(resp.Cause) + len(resp.T.Sealed) + len(resp.T.Sig) + len(resp.U.Sealed); n > len(wire) {
			t.Fatalf("%d bytes decoded to %d", len(wire), n)
		}
		fx.withPass(fx.telco) // a refused MAC in the last input dropped it
		grant, _, err := fx.telco.HandleResponse(brokerPub, resp)
		if err != nil {
			return
		}
		signed := brokerPub.Verify(resp.T.Sealed, resp.T.Sig) == nil
		_, openErr := opener.OpenReply(resp.T.Sealed)
		if !signed && (len(resp.T.Sig) != 0 || openErr != nil) {
			t.Fatalf("grant %q from an authRespT neither signed by the broker nor sealed on its pass", grant.URef)
		}
	})
}

// constReader answers every read with one byte.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// drawnFrom runs fn with crypto/rand answering every read with b, so what fn
// draws — an ephemeral key, a nonce, a ticket's locator — is the same in
// every run. Package sap's tests never run in parallel.
func drawnFrom(b byte, fn func()) {
	saved := rand.Reader
	rand.Reader = constReader(b)
	defer func() { rand.Reader = saved }()
	fn()
}

// FuzzUEHandleResponse is FuzzTelcoHandleResponse's twin at the UE: anybody's
// authRespU bytes against two pending attaches of newFixture's subscriber,
// one on first contact and one on a ticket, both drawn from fixed bytes so
// the checked-in corpus under testdata/fuzz/FuzzUEHandleResponse stays
// theirs: a grant for each, a denial's empty authRespU, a grant for another
// pending attach, and a truncated grant. Whatever comes in: no panic, nothing
// decoded is larger than the input, and a reply is accepted only if it opens
// under the pending attach's own sealer and echoes its nonce, idT and idU.
func FuzzUEHandleResponse(f *testing.F) {
	fx := newFixture(f)
	type pending struct {
		u *UEState
		p *PendingAttach
	}
	first, ticketed := pending{u: fx.ue}, pending{u: fx.firstContact()}
	drawnFrom(1, func() { fx.oneAttach(f, ticketed.u) }) // arms its ticket
	for i, at := range []*pending{&first, &ticketed} {
		var reqU *AuthReqU
		var err error
		drawnFrom(byte(2+i), func() { reqU, at.p, err = at.u.NewAttachRequest(fx.telco.IDT) })
		if err != nil || (at.p.spent != nil) != (at == &ticketed) {
			f.Fatalf("pending attach %d: %v, ticketed=%v", i, err, at.p.spent != nil)
		}
		reqT, err := fx.telco.ForwardRequest(reqU)
		if err != nil {
			f.Fatal(err)
		}
		resp, _, err := fx.broker.HandleRequest(reqT)
		if err != nil || !resp.Granted {
			f.Fatalf("seed attach: %v %+v", err, resp)
		}
		f.Add(resp.U.Marshal())
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		resp, err := UnmarshalAuthRespU(wire)
		if err != nil {
			return
		}
		if len(resp.Sealed) > len(wire) {
			t.Fatalf("%d bytes decoded to %d", len(wire), len(resp.Sealed))
		}
		for _, at := range []pending{first, ticketed} {
			ss, _, err := at.u.HandleResponse(at.p, resp)
			if err != nil {
				continue
			}
			var inner innerRespU
			pt, err := at.p.Sealer.OpenReply(resp.Sealed)
			if err != nil || inner.unmarshal(pt) != nil {
				t.Fatalf("accepted a reply that does not open on the pending sealer: %v", err)
			}
			if inner.Nonce != at.p.Nonce || inner.IDT != at.p.IDT || inner.IDU != at.u.IDU || inner.SS != ss {
				t.Fatalf("accepted a reply for nonce %x, idT %q, idU %q", inner.Nonce, inner.IDT, inner.IDU)
			}
		}
	})
}
