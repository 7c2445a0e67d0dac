package sap

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// withPass hands telco the pass f's broker would give it, as a completed
// signed handshake does.
func (f *fixture) withPass(telco *TelcoState) *TelcoState {
	pass := f.broker.Key.Pass(telco.Cert.Digest())
	telco.brokers.learn([]byte(f.broker.IDB), f.broker.Key.Public().SigPub, telco.Cert, pass.Key[:])
	return telco
}

// Everything Validate and Decide check below the bTelco's own
// authentication is indifferent to how that authentication was done: the
// same request MAC'd and signed gets the same answer, cause for cause.
func TestTelcoLegDecisionsIdenticalSignedAndMACd(t *testing.T) {
	certified := func(f *fixture, subject, role string, from, to time.Duration) *TelcoState {
		key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{20}, 32))
		return &TelcoState{IDT: subject, Key: key, Terms: f.telco.Terms,
			Cert: f.ca.Issue(subject, role, key.Public(), f.now.Add(from), f.now.Add(to))}
	}
	for _, tc := range []struct {
		name string
		// arrange returns the bTelco that forwards and the UE that asks.
		arrange   func(f *fixture) (*TelcoState, *UEState)
		wantCause string // "" = granted
		ueNames   string // the bTelco the UE binds its request to; "" = the forwarder
	}{
		{"honest", func(f *fixture) (*TelcoState, *UEState) { return f.passless(), f.ue }, "", ""},
		{"certificate expired", func(f *fixture) (*TelcoState, *UEState) {
			return certified(f, "btelco-old", "btelco", -48*time.Hour, -24*time.Hour), f.ue
		}, "certificate invalid", ""},
		{"certificate not yet valid", func(f *fixture) (*TelcoState, *UEState) {
			return certified(f, "btelco-new", "btelco", time.Hour, 2*time.Hour), f.ue
		}, "certificate invalid", ""},
		{"certificate of another CA", func(f *fixture) (*TelcoState, *UEState) {
			rogue, _ := pki.NewCAFromSeed("rogue-ca", bytes.Repeat([]byte{66}, 32))
			telco := f.passless()
			telco.Cert = rogue.Issue(telco.IDT, "btelco", telco.Key.Public(), f.now.Add(-time.Hour), f.now.Add(time.Hour))
			return telco, f.ue
		}, "certificate invalid", ""},
		{"broker-role certificate", func(f *fixture) (*TelcoState, *UEState) {
			return certified(f, "some-broker", "broker", -time.Hour, time.Hour), f.ue
		}, "subject/role mismatch", ""},
		{"certificate of another subject", func(f *fixture) (*TelcoState, *UEState) {
			telco := certified(f, "btelco-x", "btelco", -time.Hour, time.Hour)
			telco.IDT = "btelco-y"
			return telco, f.ue
		}, "subject/role mismatch", ""},
		{"request bound to another bTelco", func(f *fixture) (*TelcoState, *UEState) {
			return certified(f, "btelco-evil", "btelco", -time.Hour, time.Hour), f.ue
		}, "identity mismatch", "btelco-1"},
		{"unknown user", func(f *fixture) (*TelcoState, *UEState) {
			key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{13}, 32))
			return f.passless(), &UEState{IDU: key.Public().Digest(), IDB: f.broker.IDB, Key: key, BrokerPub: f.ue.BrokerPub}
		}, "unknown user", ""},
		{"revoked user", func(f *fixture) (*TelcoState, *UEState) {
			f.broker.RevokeUser(f.ue.IDU)
			return f.passless(), f.ue
		}, "revoked", ""},
		{"policy denies the bTelco", func(f *fixture) (*TelcoState, *UEState) {
			f.broker.Policy = AuthorizerFunc(func(string, string, ServiceTerms) (qos.Params, error) {
				return qos.Params{}, errors.New("bTelco quarantined")
			})
			return f.passless(), f.ue
		}, "authorization denied: bTelco quarantined", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var causes [2]string
			for mode, macd := range []bool{false, true} {
				f := newFixture(t)
				telco, u := tc.arrange(f)
				if macd {
					f.withPass(telco)
				}
				idT := tc.ueNames
				if idT == "" {
					idT = telco.IDT
				}
				reqU, _, err := u.NewAttachRequest(idT)
				if err != nil {
					t.Fatal(err)
				}
				reqT, err := telco.ForwardRequest(reqU)
				if err != nil {
					t.Fatal(err)
				}
				if want := map[bool]int{false: 64, true: telcoMACSize}[macd]; len(reqT.Sig) != want {
					t.Fatalf("macd=%v: %d-byte Sig", macd, len(reqT.Sig))
				}
				resp := f.answer(t, reqT)
				if granted := tc.wantCause == ""; resp.Granted != granted || !strings.Contains(resp.Cause, tc.wantCause) {
					t.Fatalf("macd=%v: granted=%v cause=%q, want %q", macd, resp.Granted, resp.Cause, tc.wantCause)
				}
				if resp.Granted && (len(resp.T.Sig) == 0) != macd {
					t.Fatalf("macd=%v answered with a %d-byte authRespT signature", macd, len(resp.T.Sig))
				}
				causes[mode] = resp.Cause
			}
			if causes[0] != causes[1] {
				t.Fatalf("signed: %q, MAC'd: %q", causes[0], causes[1])
			}
		})
	}
}

// Eight goroutines share one TelcoState from first contact on: each forward
// picks whichever mode the table allows at that instant, every answer is
// accepted in the mode it was made in, and once any of them has fetched the
// pass the rest follow. Run under -race.
func TestTelcoStateConcurrentAcrossTheSignedToMACTransition(t *testing.T) {
	f := newFixture(t)
	brokerPub := f.broker.Key.Public()
	const workers, each = 8, 12
	var macd, signed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{byte(130 + g)}, 32))
		u := &UEState{IDU: f.broker.RegisterUser(key.Public()), IDB: f.broker.IDB, Key: key, BrokerPub: brokerPub}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				reqU, p, err := u.NewAttachRequest(f.telco.IDT)
				if err != nil {
					t.Error(err)
					return
				}
				reqT, err := f.telco.ForwardRequest(reqU)
				if err != nil {
					t.Error(err)
					return
				}
				resp, _, err := f.broker.HandleRequest(reqT)
				if err != nil || !resp.Granted || (len(reqT.Sig) == telcoMACSize) != (len(resp.T.Sig) == 0) {
					t.Errorf("attach: %v %+v to a %d-byte Sig", err, resp, len(reqT.Sig))
					return
				}
				_, respU, err := f.telco.HandleResponse(brokerPub, resp)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := u.HandleResponse(p, respU); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if len(reqT.Sig) == telcoMACSize {
					macd++
				} else {
					signed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// At most one signed handshake per goroutine can have been in flight
	// before the first pass landed.
	if signed < 1 || signed > workers || macd != workers*each-signed {
		t.Fatalf("%d signed, %d MAC'd of %d", signed, macd, workers*each)
	}
	if _, unreceipted := f.telco.Receipts(f.broker.IDB); unreceipted != macd {
		t.Fatalf("%d grants await a receipt, %d were MAC'd", unreceipted, macd)
	}
}

// The ring holds the last receiptEvery MAC-mode grants and no more; a
// receipt settles exactly what it covers, and what a third party needs to
// check one is the broker's public key.
func TestReceiptRingBoundedAndSettled(t *testing.T) {
	f := newFixture(t)
	idB, brokerPub := f.broker.IDB, f.broker.Key.Public()
	f.fullAttach(t, f.ue) // first contact: signed, nothing to receipt
	if f.telco.ReceiptDue(idB) || f.telco.ReceiptRequest(idB) != nil {
		t.Fatal("a signed grant asked for a receipt")
	}
	for i := 0; i < receiptEvery-1; i++ {
		f.fullAttach(t, f.ue)
	}
	if f.telco.ReceiptDue(idB) {
		t.Fatalf("due after %d MAC-mode grants", receiptEvery-1)
	}
	f.fullAttach(t, f.ue)
	if _, n := f.telco.Receipts(idB); !f.telco.ReceiptDue(idB) || n != receiptEvery {
		t.Fatalf("after %d MAC-mode grants: due=%v, %d unreceipted", receiptEvery, f.telco.ReceiptDue(idB), n)
	}
	req := f.telco.ReceiptRequest(idB)
	oldest := req.URefs[0]
	// Nobody redeems: the ring forgets its oldest and never grows.
	f.fullAttach(t, f.ue)
	req2 := f.telco.ReceiptRequest(idB)
	if len(req2.URefs) != receiptEvery || slices.Contains(req2.URefs, oldest) || req2.URefs[0] != req.URefs[1] {
		t.Fatalf("ring holds %d, oldest kept: %v", len(req2.URefs), slices.Contains(req2.URefs, oldest))
	}

	// Both requests went out under the pass and survive the wire.
	reqW, err := UnmarshalReceiptReq(req.Marshal())
	if err != nil || len(reqW.Sig) != telcoMACSize {
		t.Fatalf("decode: %v, %d-byte Sig", err, len(reqW.Sig))
	}
	if cause := f.broker.CheckReceiptReq(reqW); cause != "" {
		t.Fatal(cause)
	}
	rc := f.broker.SignReceipt(reqW.IDT, reqW.URefs)
	respW, err := UnmarshalReceiptResp((&ReceiptResp{Granted: true, Receipt: rc}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.telco.AcceptReceipt(brokerPub, req, respW); err != nil {
		t.Fatal(err)
	}
	// 255 of the 256 were still in the ring; the one grant since stays.
	kept, left := f.telco.Receipts(idB)
	if len(kept) != 1 || left != 1 {
		t.Fatalf("%d receipts kept, %d grants unreceipted, want 1 and 1", len(kept), left)
	}
	// The same answer again settles nothing and is not kept twice.
	if err := f.telco.AcceptReceipt(brokerPub, req, respW); err != nil {
		t.Fatal(err)
	}
	if kept, left := f.telco.Receipts(idB); len(kept) != 1 || left != 1 {
		t.Fatalf("after a duplicate: %d receipts, %d unreceipted", len(kept), left)
	}
	for _, uref := range req.URefs {
		if err := VerifyReceipt(brokerPub, kept[0], uref); err != nil {
			t.Fatalf("third party, %s: %v", uref, err)
		}
	}
	if err := VerifyReceipt(brokerPub, kept[0], req2.URefs[receiptEvery-1]); err == nil {
		t.Fatal("a receipt vouched for a grant made after it")
	}
	other, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{104}, 32))
	if err := VerifyReceipt(other.Public(), kept[0], oldest); !errors.Is(err, pki.ErrBadSignature) {
		t.Fatalf("under another broker's key: %v", err)
	}
}

// What a bTelco does with each answer a broker — or somebody in between —
// can give to a receipt request.
func TestAcceptReceiptLadder(t *testing.T) {
	for _, tc := range []struct {
		name string
		// answer builds the response to req.
		answer  func(f *fixture, req *ReceiptReq) *ReceiptResp
		wantErr error
		left    int // unreceipted grants afterwards, of the 3 made
		passes  bool
	}{
		{"signed receipt", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			return &ReceiptResp{Granted: true, Receipt: f.broker.SignReceipt(req.IDT, req.URefs)}
		}, nil, 0, true},
		{"receipt signed by another key", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			key, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{105}, 32))
			m := NewBrokerState(f.broker.IDB, key, f.ca.Public(), nil, nil)
			return &ReceiptResp{Granted: true, Receipt: m.SignReceipt(req.IDT, req.URefs)}
		}, pki.ErrBadSignature, 3, true},
		{"genuine receipt for fewer grants than asked", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			return &ReceiptResp{Granted: true, Receipt: f.broker.SignReceipt(req.IDT, req.URefs[:2])}
		}, ErrBadRequest, 3, true},
		{"genuine receipt naming another bTelco", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			return &ReceiptResp{Granted: true, Receipt: f.broker.SignReceipt("btelco-2", req.URefs)}
		}, ErrBadRequest, 3, true},
		{"refusal disowning one grant", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			return &ReceiptResp{Cause: "not a grant of this broker", Disowned: req.URefs[1]}
		}, ErrReceiptRefused, 2, true},
		{"refusal disowning a grant nobody asked about", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			return &ReceiptResp{Cause: "not a grant of this broker", Disowned: "feedfacefeedfacefeedface"}
		}, ErrReceiptRefused, 3, true},
		{"refused MAC", func(f *fixture, req *ReceiptReq) *ReceiptResp {
			return &ReceiptResp{Cause: causeTelcoMAC}
		}, ErrStalePass, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			for i := 0; i < 4; i++ { // one signed, three under the pass
				f.fullAttach(t, f.ue)
			}
			req := f.telco.ReceiptRequest(f.broker.IDB)
			if len(req.URefs) != 3 {
				t.Fatalf("%d grants to redeem", len(req.URefs))
			}
			err := f.telco.AcceptReceipt(f.broker.Key.Public(), req, tc.answer(f, req))
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if _, left := f.telco.Receipts(f.broker.IDB); left != tc.left {
				t.Fatalf("%d grants unreceipted, want %d", left, tc.left)
			}
			// Whatever the answer, the next request is redeemable at the
			// honest broker — signed, if the pass went.
			req = f.telco.ReceiptRequest(f.broker.IDB)
			if tc.left == 0 {
				if req != nil {
					t.Fatal("a request with nothing to redeem")
				}
				return
			}
			if want := map[bool]int{true: telcoMACSize, false: 64}[tc.passes]; len(req.Sig) != want {
				t.Fatalf("next request carries a %d-byte Sig, want %d", len(req.Sig), want)
			}
			if cause := f.broker.CheckReceiptReq(req); cause != "" {
				t.Fatal(cause)
			}
		})
	}
}

// The broker's half: a receipt request is authenticated by the function
// that authenticates an authReqT, under a label of its own.
func TestCheckReceiptReqLadder(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mangle    func(f *fixture, req *ReceiptReq)
		wantCause string
	}{
		{"under the pass", func(*fixture, *ReceiptReq) {}, ""},
		{"signed", func(f *fixture, req *ReceiptReq) { req.Sig = f.telco.Key.Sign(req.signedBytes()) }, ""},
		{"a session reference added after the MAC", func(f *fixture, req *ReceiptReq) {
			req.URefs = append(req.URefs, "feedfacefeedfacefeedface")
		}, causeTelcoMAC},
		{"an authReqT's MAC over the same bytes", func(f *fixture, req *ReceiptReq) {
			pass := f.broker.Key.Pass(f.telco.Cert.Digest())
			tag := pass.Tag(authReqMACLabel, req.signedBytes())
			req.Sig = tag[:]
		}, causeTelcoMAC},
		{"another bTelco's name on this one's certificate", func(f *fixture, req *ReceiptReq) {
			req.IDT = "btelco-2"
		}, "subject/role mismatch"},
		{"addressed to another broker", func(f *fixture, req *ReceiptReq) { req.IDB = "broker.m" }, "different broker"},
		{"empty", func(f *fixture, req *ReceiptReq) { req.URefs = nil }, "empty"},
		{"no certificate", func(f *fixture, req *ReceiptReq) { req.Cert = nil }, "certificate invalid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.fullAttach(t, f.ue)
			f.fullAttach(t, f.ue)
			req := f.telco.ReceiptRequest(f.broker.IDB)
			tc.mangle(f, req)
			if cause := f.broker.CheckReceiptReq(req); (cause == "") != (tc.wantCause == "") || !strings.Contains(cause, tc.wantCause) {
				t.Fatalf("cause %q, want %q", cause, tc.wantCause)
			}
		})
	}
}

// More references than a ring holds is a decode error on both messages.
func TestReceiptCodecBoundsTheReferenceCount(t *testing.T) {
	urefs := make([]string, receiptEvery+1)
	for i := range urefs {
		urefs[i] = fmt.Sprintf("%024x", i)
	}
	f := newFixture(t)
	req := &ReceiptReq{IDB: "b", IDT: "t", Cert: f.telco.Cert, URefs: urefs}
	if _, err := UnmarshalReceiptReq(req.Marshal()); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("request with %d references: %v", len(urefs), err)
	}
	resp := &ReceiptResp{Granted: true, Receipt: Receipt{URefs: urefs}}
	if _, err := UnmarshalReceiptResp(resp.Marshal()); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("response with %d references: %v", len(urefs), err)
	}
	req.URefs = urefs[:receiptEvery]
	got, err := UnmarshalReceiptReq(req.Marshal())
	if err != nil || len(got.URefs) != receiptEvery || got.URefs[receiptEvery-1] != urefs[receiptEvery-1] {
		t.Fatalf("request with %d references: %v", receiptEvery, err)
	}
	wire := req.Marshal()
	for _, cut := range []int{1, 9, len(wire) / 2, len(wire) - 1} {
		if _, err := UnmarshalReceiptReq(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
