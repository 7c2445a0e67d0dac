package sap

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"cellbricks/internal/nas"
	"cellbricks/internal/qos"
)

// The retired resume exchange (resume.go), kept correct while
// benchmark/prices.go still prices it.

// runResume drives one fast-path exchange end to end at the sap layer:
// UE builds the request, the serving bTelco co-signs, the "broker" (here
// just the record from the prior attach) verifies and grants, and both
// UE and bTelco accept the confirmation.
func runResume(t *testing.T, f *fixture, tkt *ResumeSession, rec *GrantRecord) (*ResumeSession, *Grant) {
	t.Helper()
	req, err := tkt.NewResumeRequest()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.telco.ForwardResume(req, rec.SS); err != nil {
		t.Fatal(err)
	}
	if err := VerifyResumeReq(req, rec.SS); err != nil {
		t.Fatal(err)
	}
	resp, ss2, uref2 := GrantResume(req, rec.SS, rec.QoS, 1.0)
	grant, err := f.telco.AcceptResume(req, resp, rec.SS)
	if err != nil {
		t.Fatal(err)
	}
	next, ueSS, err := tkt.HandleResumeResponse(req, resp)
	if err != nil {
		t.Fatal(err)
	}
	if ueSS != grant.SS || ueSS != ss2 {
		t.Fatal("UE, bTelco and broker derived different successor secrets")
	}
	if next.URef != grant.URef || next.URef != uref2 {
		t.Fatalf("successor uref disagreement: ue=%q telco=%q broker=%q", next.URef, grant.URef, uref2)
	}
	if next.URef == tkt.URef {
		t.Fatal("successor uref equals the consumed one")
	}
	if len(next.URef) != len(tkt.URef) {
		t.Fatalf("successor uref shape changed: %q", next.URef)
	}
	return next, grant
}

func TestResumeEndToEnd(t *testing.T) {
	f := newFixture(t)
	ueSS, _, grant, rec := f.runAttach(t)
	tkt := &ResumeSession{IDT: f.telco.IDT, URef: grant.URef, SS: ueSS}
	next, g2 := runResume(t, f, tkt, rec)
	if g2.Params != grant.Params {
		t.Fatalf("resume changed QoS: %+v != %+v", g2.Params, grant.Params)
	}
	// The chain continues: resume again off the successor.
	rec2 := &GrantRecord{URef: next.URef, IDU: rec.IDU, IDT: rec.IDT, SS: next.SS, QoS: rec.QoS}
	runResume(t, f, next, rec2)
}

func TestResumeTamperedMACRejected(t *testing.T) {
	f := newFixture(t)
	ueSS, _, grant, rec := f.runAttach(t)
	tkt := &ResumeSession{IDT: f.telco.IDT, URef: grant.URef, SS: ueSS}

	req, _ := tkt.NewResumeRequest()
	req.MACU[0] ^= 1
	if err := f.telco.ForwardResume(req, rec.SS); !errors.Is(err, errResumeMAC) {
		t.Fatalf("bTelco err=%v, want errResumeMAC", err)
	}

	req, _ = tkt.NewResumeRequest()
	if err := f.telco.ForwardResume(req, rec.SS); err != nil {
		t.Fatal(err)
	}
	req.MACT[0] ^= 1
	if err := VerifyResumeReq(req, rec.SS); !errors.Is(err, errResumeMAC) {
		t.Fatalf("broker err=%v, want errResumeMAC", err)
	}
}

func TestResumeForgedResponseRejected(t *testing.T) {
	f := newFixture(t)
	ueSS, _, grant, rec := f.runAttach(t)
	tkt := &ResumeSession{IDT: f.telco.IDT, URef: grant.URef, SS: ueSS}
	req, _ := tkt.NewResumeRequest()
	if err := f.telco.ForwardResume(req, rec.SS); err != nil {
		t.Fatal(err)
	}
	resp, _, _ := GrantResume(req, rec.SS, rec.QoS, 1.0)

	bad := *resp
	bad.MACU = append([]byte(nil), resp.MACU...)
	bad.MACU[3] ^= 0xFF
	if _, _, err := tkt.HandleResumeResponse(req, &bad); !errors.Is(err, errResumeMAC) {
		t.Fatalf("UE err=%v, want errResumeMAC", err)
	}
	bad = *resp
	bad.MACT = append([]byte(nil), resp.MACT...)
	bad.MACT[3] ^= 0xFF
	if _, err := f.telco.AcceptResume(req, &bad, rec.SS); !errors.Is(err, errResumeMAC) {
		t.Fatalf("bTelco err=%v, want errResumeMAC", err)
	}
	// QoS inflation after signing: MAC covers params, so both sides refuse.
	bad = *resp
	bad.Params.DLAmbrBps *= 2
	if _, _, err := tkt.HandleResumeResponse(req, &bad); !errors.Is(err, errResumeMAC) {
		t.Fatalf("UE accepted inflated params: %v", err)
	}
}

func TestResumeWrongTelcoRejected(t *testing.T) {
	f := newFixture(t)
	ueSS, _, grant, rec := f.runAttach(t)
	tkt := &ResumeSession{IDT: "btelco-other", URef: grant.URef, SS: ueSS}
	req, _ := tkt.NewResumeRequest()
	if err := f.telco.ForwardResume(req, rec.SS); !errors.Is(err, ErrWrongTelco) {
		t.Fatalf("err=%v, want ErrWrongTelco", err)
	}
}

func TestResumeDenialPropagates(t *testing.T) {
	f := newFixture(t)
	ueSS, _, grant, _ := f.runAttach(t)
	tkt := &ResumeSession{IDT: f.telco.IDT, URef: grant.URef, SS: ueSS}
	req, _ := tkt.NewResumeRequest()
	deny := &resumeResp{Cause: "bTelco is quarantined", TelcoScore: 0.4}
	if _, _, err := tkt.HandleResumeResponse(req, deny); !errors.Is(err, ErrDenied) {
		t.Fatalf("UE err=%v, want ErrDenied", err)
	}
	if _, err := f.telco.AcceptResume(req, deny, grant.SS); !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("bTelco err=%v, want wrapped ErrDenied with cause", err)
	}
}

func TestResumeWrongSecretCannotForge(t *testing.T) {
	f := newFixture(t)
	ueSS, _, grant, rec := f.runAttach(t)
	// An off-path attacker knows uref and idT but not ss.
	var wrong [32]byte
	wrong[0] = 0xAA
	forged := &ResumeSession{IDT: f.telco.IDT, URef: grant.URef, SS: wrong}
	req, _ := forged.NewResumeRequest()
	if err := f.telco.ForwardResume(req, rec.SS); !errors.Is(err, errResumeMAC) {
		t.Fatalf("bTelco forwarded a forged resume: %v", err)
	}
	_ = ueSS
}

// TestGrantResumeMACKnownAnswer pins the bytes GrantResume's confirmation
// MACs cover: any change to how resumeRespMAC lays out its fields moves
// these.
func TestGrantResumeMACKnownAnswer(t *testing.T) {
	var ss nas.MasterKey
	for i := range ss {
		ss[i] = byte(i)
	}
	req := &resumeReq{URef: "uref-kat", IDT: "btelco-kat"}
	for i := range req.Nonce {
		req.Nonce[i] = byte(0xA0 + i)
	}
	params := qos.Params{QCI: qos.QCIWebTCPDefault, DLAmbrBps: 100_000_000, ULAmbrBps: 50_000_000}
	resp, _, uref2 := GrantResume(req, ss, params, 0.75)
	for _, c := range []struct{ name, got, want string }{
		{"uref'", uref2, "9fde537f6ec235d1b2ba5ca3"},
		{"MACU", hex.EncodeToString(resp.MACU), "b41b7c7ec8153491bcef32609fc64360963b1a92e177fe522b5eb4bbc18c18ed"},
		{"MACT", hex.EncodeToString(resp.MACT), "cedd675780d0b6137ce05a201ad4b9dfdd4ac9e47019975678c73a8407d35954"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
