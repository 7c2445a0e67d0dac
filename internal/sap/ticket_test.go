package sap

import (
	"bytes"
	"testing"

	"cellbricks/internal/pki"
)

// oneAttach runs UE request → bTelco forward → broker Validate / Decide /
// Finalize → UE response on u, in whichever mode u's state selects.
func (f *fixture) oneAttach(tb testing.TB, u *UEState) {
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
	if _, _, err := u.HandleResponse(p, &resp.U); err != nil {
		tb.Fatal(err)
	}
}

// forgetTicket makes u's next attach first contact again.
func forgetTicket(u *UEState) { u.ticket.Store((*pki.Ticket)(nil)) }

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

// BenchmarkAttachTicketed prices the four UE/broker procedures (and the
// bTelco's forward, which both modes pay) of one attach, first contact
// against steady state.
func BenchmarkAttachTicketed(b *testing.B) {
	for _, mode := range []struct {
		name   string
		signed bool
	}{{"signed", true}, {"ticketed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			f := newFixture(b)
			f.oneAttach(b, f.ue)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.signed {
					forgetTicket(f.ue)
				}
				f.oneAttach(b, f.ue)
			}
		})
	}
}

// FuzzValidate feeds another party's bytes to the broker's decoder and its
// stateless checks. The seed corpus under testdata/fuzz/FuzzValidate
// (signed and ticketed requests of newFixture's principals, and manglings
// of both) runs on every plain `go test`. Whatever comes in: no panic,
// nothing decoded is larger than the input, and Validate passes a request
// only if the UE's signature or a ticket bound to the named idU
// authenticated the vector.
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
	fx.oneAttach(f, fx.ue)
	for _, ticketed := range []bool{false, true} {
		if !ticketed {
			forgetTicket(fx.ue)
		}
		reqU, _, err := fx.ue.NewAttachRequest(fx.telco.IDT)
		if err != nil {
			f.Fatal(err)
		}
		reqT, err := fx.telco.ForwardRequest(reqU)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(reqT.Marshal())
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
		signed := users[v.Vec.IDU].Verify(req.ReqU.SealedVec, req.ReqU.Sig) == nil
		bound := len(req.ReqU.Sig) == 0 && fx.broker.Key.TicketBound(req.ReqU.SealedVec, v.Vec.IDU)
		if !signed && !bound {
			t.Fatalf("passed for %q with neither a signature nor a bound ticket", v.Vec.IDU)
		}
	})
}
