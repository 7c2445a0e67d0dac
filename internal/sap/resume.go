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

// Session resumption: the SAP fast path for re-attachment.
//
// A full SAP handshake costs the broker two signature verifications, a
// box decryption, two seals, and two signatures — fine for the first
// attach, ruinous during a flash crowd of UEs re-attaching to cells they
// already hold grants for. Resumption replaces the asymmetric crypto
// with a handful of HMAC-SHA256 computations over the shared secret ss
// that the full handshake already distributed to all three parties
// (UE, serving bTelco, broker):
//
//	UE      → bTelco: ResumeReq{uref, idT, nonce, macU}
//	bTelco  → broker: ResumeReq{..., macT}          (co-signs the forward)
//	broker  → both:   ResumeResp{uref', params, macU', macT'}
//
// The broker checks both MACs against the grant it recorded under uref,
// re-runs the authorization policy (a quarantined or demoted bTelco is
// denied exactly as a full attach would be), marks uref consumed
// (single-use: a replayed ResumeReq is refused), and derives the
// successor secret and reference deterministically from (ss, nonce) —
// all three parties compute ss' and uref' locally, so the response
// carries only confirmation MACs, nothing sealed.
//
// Trust bounds, stated plainly: ss is shared three ways, so the serving
// bTelco could forge its own UE's resume — but that only re-attaches the
// UE to itself under the original grant's terms, and billing still
// requires the UE-attested counter it cannot forge. An off-path attacker
// without ss can neither resume nor link uref to uref'. Resumption pins
// the ORIGINAL grant's terms and price; a bTelco wanting new terms must
// run the full handshake. Forward secrecy is weaker than the full path
// (compromise of ss exposes the whole derivation chain), which is why
// the chain re-keys through HMAC with a fresh nonce each hop and any
// party may fall back to a full attach at will.

// ErrResumeMAC reports a resume message whose MAC does not verify.
var ErrResumeMAC = errors.New("sap: resume MAC invalid")

// ResumeReq is the fast-path re-attach request for an existing grant.
type ResumeReq struct {
	URef  string          // session reference from the prior grant
	IDT   string          // serving bTelco (must match the grant)
	Nonce [NonceSize]byte // fresh per resume; drives ss'/uref' derivation
	MACU  []byte          // UE's HMAC over the request
	MACT  []byte          // serving bTelco's HMAC over the request
}

// ResumeResp is the broker's answer. On a grant, URef/Params carry the
// successor session and both MACs confirm the broker knows ss; denials
// are unauthenticated, exactly like full-handshake denials.
type ResumeResp struct {
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
	w := codec.NewWriter(64)
	w.String(newURef)
	w.Bytes(nonce[:])
	w.Byte(byte(params.QCI))
	w.Uint64(params.DLAmbrBps)
	w.Uint64(params.ULAmbrBps)
	m := hmac.New(sha256.New, key)
	m.Write([]byte("resp\x00"))
	m.Write(w.Out())
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

// ResumeSession is the UE-side ticket cached after a successful full
// attach (or prior resume) that enables the fast path back onto the same
// bTelco.
type ResumeSession struct {
	IDT  string
	URef string
	SS   nas.MasterKey
	// Sealer is the exchange of the full handshake this ticket descends
	// from: a resumed session's reports keep riding it (same bTelco by
	// construction, so nothing new is linkable).
	Sealer *pki.Sealer
}

// NewResumeRequest builds the UE half of a fast-path re-attach: a fresh
// nonce plus the UE's MAC. The serving bTelco adds MACT via
// ForwardResume.
func (s *ResumeSession) NewResumeRequest() (*ResumeReq, error) {
	nonce, err := pki.NewNonce()
	if err != nil {
		return nil, err
	}
	req := &ResumeReq{URef: s.URef, IDT: s.IDT, Nonce: nonce}
	req.MACU = resumeReqMAC(resumeKey(s.SS, "cb-resume-u"), req.URef, req.IDT, req.Nonce)
	return req, nil
}

// HandleResumeResponse verifies the broker's confirmation MAC, checks the
// derived successor reference, and returns the successor ticket plus the
// new NAS master key. On a denial it returns ErrDenied wrapped with the
// cause; the caller should drop the ticket and fall back to a full
// attach.
func (s *ResumeSession) HandleResumeResponse(req *ResumeReq, resp *ResumeResp) (*ResumeSession, nas.MasterKey, error) {
	var zero nas.MasterKey
	if req == nil || resp == nil {
		return nil, zero, ErrBadRequest
	}
	if !resp.Granted {
		return nil, zero, fmt.Errorf("%w: %s", ErrDenied, resp.Cause)
	}
	want := resumeRespMAC(resumeKey(s.SS, "cb-resume-u"), resp.URef, req.Nonce, resp.Params)
	if !hmac.Equal(want, resp.MACU) {
		return nil, zero, ErrResumeMAC
	}
	if resp.URef != deriveResumeURef(s.SS, req.Nonce) {
		return nil, zero, fmt.Errorf("%w: derived session reference mismatch", ErrBadRequest)
	}
	ss2 := deriveResumeSecret(s.SS, req.Nonce)
	return &ResumeSession{IDT: s.IDT, URef: resp.URef, SS: ss2, Sealer: s.Sealer}, ss2, nil
}

// ForwardResume is the serving bTelco's half: verify the UE's MAC under
// the session secret it holds for uref (refusing forwards for sessions
// it does not serve) and co-sign the request with its own MAC.
func (t *TelcoState) ForwardResume(req *ResumeReq, ss nas.MasterKey) error {
	if req == nil {
		return ErrBadRequest
	}
	if req.IDT != t.IDT {
		return ErrWrongTelco
	}
	if !hmac.Equal(resumeReqMAC(resumeKey(ss, "cb-resume-u"), req.URef, req.IDT, req.Nonce), req.MACU) {
		return ErrResumeMAC
	}
	req.MACT = resumeReqMAC(resumeKey(ss, "cb-resume-t"), req.URef, req.IDT, req.Nonce)
	return nil
}

// AcceptResume is the serving bTelco's response handler: verify the
// broker's confirmation MAC, derive the successor secret, and return the
// Grant for the resumed session (original params echoed by the broker).
func (t *TelcoState) AcceptResume(req *ResumeReq, resp *ResumeResp, ss nas.MasterKey) (*Grant, error) {
	if req == nil || resp == nil {
		return nil, ErrBadRequest
	}
	if !resp.Granted {
		return nil, fmt.Errorf("%w: %s", ErrDenied, resp.Cause)
	}
	want := resumeRespMAC(resumeKey(ss, "cb-resume-t"), resp.URef, req.Nonce, resp.Params)
	if !hmac.Equal(want, resp.MACT) {
		return nil, ErrResumeMAC
	}
	return &Grant{URef: resp.URef, SS: deriveResumeSecret(ss, req.Nonce), Params: resp.Params}, nil
}

// VerifyResumeReq is the broker-side MAC check: both the UE's and the
// serving bTelco's MAC must verify under the grant's session secret.
func VerifyResumeReq(req *ResumeReq, ss nas.MasterKey) error {
	if req == nil {
		return ErrBadRequest
	}
	if !hmac.Equal(resumeReqMAC(resumeKey(ss, "cb-resume-u"), req.URef, req.IDT, req.Nonce), req.MACU) {
		return fmt.Errorf("%w (UE)", ErrResumeMAC)
	}
	if !hmac.Equal(resumeReqMAC(resumeKey(ss, "cb-resume-t"), req.URef, req.IDT, req.Nonce), req.MACT) {
		return fmt.Errorf("%w (bTelco)", ErrResumeMAC)
	}
	return nil
}

// GrantResume builds the broker's granting response: derive the
// successor (ss', uref') from the grant secret and the request nonce and
// confirm both derivations to UE and bTelco with role-keyed MACs.
// Returns the response plus (ss', uref') for the broker's own grant
// bookkeeping.
func GrantResume(req *ResumeReq, ss nas.MasterKey, params qos.Params, score float64) (*ResumeResp, nas.MasterKey, string) {
	ss2 := deriveResumeSecret(ss, req.Nonce)
	uref2 := deriveResumeURef(ss, req.Nonce)
	resp := &ResumeResp{Granted: true, TelcoScore: score, URef: uref2, Params: params}
	resp.MACU = resumeRespMAC(resumeKey(ss, "cb-resume-u"), uref2, req.Nonce, params)
	resp.MACT = resumeRespMAC(resumeKey(ss, "cb-resume-t"), uref2, req.Nonce, params)
	return resp, ss2, uref2
}

// DenyResume builds an (unauthenticated, like full-handshake denials)
// denying response.
func DenyResume(cause string, score float64) *ResumeResp {
	return &ResumeResp{Granted: false, Cause: cause, TelcoScore: score}
}

// Marshal encodes the request for NAS/wire carriage.
func (r *ResumeReq) Marshal() []byte {
	w := codec.NewWriter(128)
	w.String(r.URef)
	w.String(r.IDT)
	w.Bytes(r.Nonce[:])
	w.Bytes(r.MACU)
	w.Bytes(r.MACT)
	return w.Out()
}

// UnmarshalResumeReq decodes a request.
func UnmarshalResumeReq(b []byte) (*ResumeReq, error) {
	r := codec.NewReader(b)
	req := &ResumeReq{URef: r.String(), IDT: r.String()}
	nonce := r.BytesCopy()
	req.MACU = r.BytesCopy()
	req.MACT = r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: resumeReq: %v", ErrBadRequest, err)
	}
	if len(nonce) != NonceSize {
		return nil, fmt.Errorf("%w: resumeReq nonce length %d", ErrBadRequest, len(nonce))
	}
	copy(req.Nonce[:], nonce)
	return req, nil
}

// Marshal encodes the response for NAS/wire carriage.
func (r *ResumeResp) Marshal() []byte {
	w := codec.NewWriter(160)
	w.Bool(r.Granted)
	w.String(r.Cause)
	w.Float64(r.TelcoScore)
	w.String(r.URef)
	w.Byte(byte(r.Params.QCI))
	w.Uint64(r.Params.DLAmbrBps)
	w.Uint64(r.Params.ULAmbrBps)
	w.Bytes(r.MACU)
	w.Bytes(r.MACT)
	return w.Out()
}

// UnmarshalResumeResp decodes a response.
func UnmarshalResumeResp(b []byte) (*ResumeResp, error) {
	r := codec.NewReader(b)
	resp := &ResumeResp{
		Granted:    r.Bool(),
		Cause:      r.String(),
		TelcoScore: r.Float64(),
		URef:       r.String(),
	}
	resp.Params.QCI = qos.QCI(r.Byte())
	resp.Params.DLAmbrBps = r.Uint64()
	resp.Params.ULAmbrBps = r.Uint64()
	resp.MACU = r.BytesCopy()
	resp.MACT = r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: resumeResp: %v", ErrBadRequest, err)
	}
	return resp, nil
}
