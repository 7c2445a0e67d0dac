package sap

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"cellbricks/internal/codec"
	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// The retired HMAC session resume. No product path runs it: the broker,
// the AGW and the testbed attach only through the SAP handshake, on a
// ticket after first contact (DESIGN.md §2.8). What is left is the one
// exchange benchmark/prices.go prices as sap.resume_us — the seven exported
// names below, and nothing to carry them over a wire — until ROADMAP item
// 1a re-fixtures the benchmark and this file goes.
//
//	UE      → bTelco: resumeReq{uref, idT, nonce, macU}
//	bTelco  → broker: resumeReq{..., macT}          (co-signs the forward)
//	broker  → both:   resumeResp{uref', params, macU', macT'}
//
// It was retired for what it leaked beside the ticket path it duplicated:
// the request names the previous session's uref in the clear, and ss is
// shared three ways, so the serving bTelco could forge its own UE's resume.

// errResumeMAC reports a resume message whose MAC does not verify.
var errResumeMAC = errors.New("sap: resume MAC invalid")

// resumeReq is the fast-path re-attach request for an existing grant.
type resumeReq struct {
	URef  string          // session reference from the prior grant
	IDT   string          // serving bTelco (must match the grant)
	Nonce [NonceSize]byte // fresh per resume; drives ss'/uref' derivation
	MACU  []byte          // UE's HMAC over the request
	MACT  []byte          // serving bTelco's HMAC over the request
}

// resumeResp is the broker's answer. On a grant, URef/Params carry the
// successor session and both MACs confirm the broker knows ss.
type resumeResp struct {
	Granted    bool
	Cause      string
	TelcoScore float64
	URef       string // successor session reference (empty on denial)
	Params     qos.Params
	MACU       []byte // broker confirmation for the UE
	MACT       []byte // broker confirmation for the bTelco
}

// resumeKey derives a role-separated MAC key from the session secret.
func resumeKey(ss nas.MasterKey, label string) []byte {
	m := hmac.New(sha256.New, ss[:])
	m.Write([]byte(label))
	return m.Sum(nil)
}

// resumeReqMAC computes the request MAC under a role key.
func resumeReqMAC(key []byte, uref, idT string, nonce [NonceSize]byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte("req\x00"))
	m.Write([]byte(uref))
	m.Write([]byte{0})
	m.Write([]byte(idT))
	m.Write([]byte{0})
	m.Write(nonce[:])
	return m.Sum(nil)
}

// resumeRespMAC computes the grant-confirmation MAC under a role key.
func resumeRespMAC(key []byte, newURef string, nonce [NonceSize]byte, params qos.Params) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(codec.Append([]byte("resp\x00"), func(c codec.Coder) codec.Coder {
		c.String(&newURef)
		c.Fixed(nonce[:])
		c.Byte((*byte)(&params.QCI))
		c.Uint64(&params.DLAmbrBps)
		c.Uint64(&params.ULAmbrBps)
		return c
	}))
	return m.Sum(nil)
}

// deriveResumeSecret computes the successor secret ss' = HMAC(ss,
// "next" || nonce). All three parties derive it locally.
func deriveResumeSecret(ss nas.MasterKey, nonce [NonceSize]byte) nas.MasterKey {
	m := hmac.New(sha256.New, ss[:])
	m.Write([]byte("next\x00"))
	m.Write(nonce[:])
	var out nas.MasterKey
	copy(out[:], m.Sum(nil))
	return out
}

// deriveResumeURef computes the successor session reference — the same
// 24-hex-char shape newURef mints, but derived so UE, bTelco and broker
// agree on it without the broker shipping it sealed.
func deriveResumeURef(ss nas.MasterKey, nonce [NonceSize]byte) string {
	m := hmac.New(sha256.New, ss[:])
	m.Write([]byte("ref\x00"))
	m.Write(nonce[:])
	return hex.EncodeToString(m.Sum(nil)[:12])
}

// ResumeSession is the UE-side state of one grant, from which a resume
// request is built.
type ResumeSession struct {
	IDT  string
	URef string
	SS   nas.MasterKey
}

// NewResumeRequest builds the UE half of a fast-path re-attach: a fresh
// nonce plus the UE's MAC. The serving bTelco adds MACT via ForwardResume.
func (s *ResumeSession) NewResumeRequest() (*resumeReq, error) {
	nonce, err := pki.NewNonce()
	if err != nil {
		return nil, err
	}
	req := &resumeReq{URef: s.URef, IDT: s.IDT, Nonce: nonce}
	req.MACU = resumeReqMAC(resumeKey(s.SS, "cb-resume-u"), req.URef, req.IDT, req.Nonce)
	return req, nil
}

// HandleResumeResponse verifies the broker's confirmation MAC, checks the
// derived successor reference, and returns the successor state plus the
// new NAS master key. A denial is ErrDenied wrapped with the cause.
func (s *ResumeSession) HandleResumeResponse(req *resumeReq, resp *resumeResp) (*ResumeSession, nas.MasterKey, error) {
	var zero nas.MasterKey
	if req == nil || resp == nil {
		return nil, zero, ErrBadRequest
	}
	if !resp.Granted {
		return nil, zero, fmt.Errorf("%w: %s", ErrDenied, resp.Cause)
	}
	want := resumeRespMAC(resumeKey(s.SS, "cb-resume-u"), resp.URef, req.Nonce, resp.Params)
	if !hmac.Equal(want, resp.MACU) {
		return nil, zero, errResumeMAC
	}
	if resp.URef != deriveResumeURef(s.SS, req.Nonce) {
		return nil, zero, fmt.Errorf("%w: derived session reference mismatch", ErrBadRequest)
	}
	ss2 := deriveResumeSecret(s.SS, req.Nonce)
	return &ResumeSession{IDT: s.IDT, URef: resp.URef, SS: ss2}, ss2, nil
}

// ForwardResume is the serving bTelco's half: verify the UE's MAC under
// the session secret it holds for uref (refusing forwards for sessions
// it does not serve) and co-sign the request with its own MAC.
func (t *TelcoState) ForwardResume(req *resumeReq, ss nas.MasterKey) error {
	if req == nil {
		return ErrBadRequest
	}
	if req.IDT != t.IDT {
		return ErrWrongTelco
	}
	if !hmac.Equal(resumeReqMAC(resumeKey(ss, "cb-resume-u"), req.URef, req.IDT, req.Nonce), req.MACU) {
		return errResumeMAC
	}
	req.MACT = resumeReqMAC(resumeKey(ss, "cb-resume-t"), req.URef, req.IDT, req.Nonce)
	return nil
}

// AcceptResume is the serving bTelco's response handler: verify the
// broker's confirmation MAC, derive the successor secret, and return the
// Grant for the resumed session (original params echoed by the broker).
func (t *TelcoState) AcceptResume(req *resumeReq, resp *resumeResp, ss nas.MasterKey) (*Grant, error) {
	if req == nil || resp == nil {
		return nil, ErrBadRequest
	}
	if !resp.Granted {
		return nil, fmt.Errorf("%w: %s", ErrDenied, resp.Cause)
	}
	want := resumeRespMAC(resumeKey(ss, "cb-resume-t"), resp.URef, req.Nonce, resp.Params)
	if !hmac.Equal(want, resp.MACT) {
		return nil, errResumeMAC
	}
	return &Grant{URef: resp.URef, SS: deriveResumeSecret(ss, req.Nonce), Params: resp.Params}, nil
}

// VerifyResumeReq is the broker-side MAC check: both the UE's and the
// serving bTelco's MAC must verify under the grant's session secret.
func VerifyResumeReq(req *resumeReq, ss nas.MasterKey) error {
	if req == nil {
		return ErrBadRequest
	}
	if !hmac.Equal(resumeReqMAC(resumeKey(ss, "cb-resume-u"), req.URef, req.IDT, req.Nonce), req.MACU) {
		return fmt.Errorf("%w (UE)", errResumeMAC)
	}
	if !hmac.Equal(resumeReqMAC(resumeKey(ss, "cb-resume-t"), req.URef, req.IDT, req.Nonce), req.MACT) {
		return fmt.Errorf("%w (bTelco)", errResumeMAC)
	}
	return nil
}

// GrantResume builds the broker's granting response: derive the
// successor (ss', uref') from the grant secret and the request nonce and
// confirm both derivations to UE and bTelco with role-keyed MACs.
// Returns the response plus (ss', uref').
func GrantResume(req *resumeReq, ss nas.MasterKey, params qos.Params, score float64) (*resumeResp, nas.MasterKey, string) {
	ss2 := deriveResumeSecret(ss, req.Nonce)
	uref2 := deriveResumeURef(ss, req.Nonce)
	resp := &resumeResp{Granted: true, TelcoScore: score, URef: uref2, Params: params}
	resp.MACU = resumeRespMAC(resumeKey(ss, "cb-resume-u"), uref2, req.Nonce, params)
	resp.MACT = resumeRespMAC(resumeKey(ss, "cb-resume-t"), uref2, req.Nonce, params)
	return resp, ss2, uref2
}
