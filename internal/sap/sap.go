// Package sap implements the Secure Attachment Protocol — the core
// contribution of the CellBricks paper (§4.1, Figs. 2–3). SAP lets a UE
// obtain cellular service from a bTelco neither it nor its broker has any
// pre-established relationship with:
//
//   - The UE seals an authentication vector (idU, idB, idT, nonce) to its
//     broker's public key and signs it, so the bTelco learns nothing about
//     the user's identity (no IMSI catching) and cannot forge requests.
//   - The bTelco augments the request with its certificate, its QoS
//     capability (qosCap) and service terms, signs it, and forwards it to
//     the broker — a single round trip, versus two in the EPS baseline.
//   - The broker authenticates both the UE (its own issued key) and the
//     bTelco (CA certificate), decides authorization, and returns two
//     sealed responses: authRespT, signed (the bTelco's irrefutable proof
//     of authorization, carrying the shared secret ss and the QoS values
//     to enforce), and authRespU (the UE's proof that its broker approved,
//     echoing the nonce and carrying the same ss), which needs no
//     signature: it comes back on the UE's own request exchange, a key
//     only the UE and its broker can form (DESIGN.md §2.7).
//
// ss then seeds the standard NAS security context on both sides, exactly
// where KASME sits in EPS (see package nas).
//
// That is first contact. A UE and its broker are not strangers — the broker
// issued the UE's key — so every grant also carries a single-use ticket,
// and the UE's next attach rides it: authVec sealed under a key the broker
// re-derives from the ticket's cleartext locator, no UE signature, no
// X25519 on either side; any attach that
// does not end in a grant sends the UE back to the full handshake
// (DESIGN.md §2.8). Nor are a broker and a bTelco it has granted before: that
// grant carries a pass, a key the broker re-derives from the bTelco's
// certificate, and from then on the bTelco leg is certified as ever but
// MAC'd where it was signed — authReqT under the pass, authRespT sealed on
// it — with the bTelco's transferable proof of authorization restored as one
// signed receipt per 256 grants. A refused MAC drops the pass and the same
// request goes out signed (pass.go, DESIGN.md §2.9). After one grant per UE
// and one per bTelco, no SAP message of an attach carries a signature.
package sap

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"cellbricks/internal/codec"
	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// NonceSize matches pki.NewNonce.
const NonceSize = 16

// Errors surfaced by protocol processing.
var (
	ErrBadRequest    = errors.New("sap: malformed request")
	ErrDenied        = errors.New("sap: authorization denied")
	ErrNonceMismatch = errors.New("sap: response nonce does not match request")
	ErrWrongTelco    = errors.New("sap: response names a different bTelco")
)

// AuthVec is the vector the UE seals to the broker: "the identifiers of
// the T, B, and U itself; plus a nonce" (Fig. 2 step 1).
type AuthVec struct {
	IDU   string
	IDB   string
	IDT   string
	Nonce [NonceSize]byte
}

func (v *AuthVec) marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, 32+len(v.IDU)+len(v.IDB)+len(v.IDT)))
	w.String(v.IDU)
	w.String(v.IDB)
	w.String(v.IDT)
	w.Bytes(v.Nonce[:])
	return w.Out()
}

func (v *AuthVec) unmarshal(b []byte) error {
	r := codec.NewReader(b)
	v.IDU = r.String()
	v.IDB = r.String()
	v.IDT = r.String()
	n := r.Bytes()
	if err := r.Done(); err != nil {
		return err
	}
	if len(n) != NonceSize {
		return fmt.Errorf("%w: nonce length %d", ErrBadRequest, len(n))
	}
	copy(v.Nonce[:], n)
	return nil
}

// AuthReqU is the UE's attach request: authReqU = (sig_authvec, authVec*,
// idB) (Fig. 2 step 4). SealedVec is authVec encrypted to pkB; Sig is the
// UE's signature over SealedVec. A UE holding a ticket from its last grant
// seals authVec on the ticket and sends no Sig — the box authenticating
// under a key only the two of them can derive is the proof (DESIGN.md §2.8).
type AuthReqU struct {
	IDB       string
	SealedVec []byte
	Sig       []byte
}

// Marshal encodes the request for transport inside a NAS message.
func (m *AuthReqU) Marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, m.encodedLen()))
	m.encode(&w)
	return w.Out()
}

func (m *AuthReqU) encodedLen() int { return 12 + len(m.IDB) + len(m.SealedVec) + len(m.Sig) }

func (m *AuthReqU) encode(w *codec.Writer) {
	w.String(m.IDB)
	w.Bytes(m.SealedVec)
	w.Bytes(m.Sig)
}

// UnmarshalAuthReqU decodes an AuthReqU.
func UnmarshalAuthReqU(b []byte) (*AuthReqU, error) {
	r := codec.NewReader(b)
	m := &AuthReqU{}
	m.IDB = r.String()
	m.SealedVec = r.BytesCopy()
	m.Sig = r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ServiceTerms are the commercial/service parameters the bTelco attaches
// to the forwarded request: its QoS capability, whether it implements
// lawful intercept, and its advertised price (the paper leaves pricing
// open to innovation; we carry an opaque per-GB price for policy use).
type ServiceTerms struct {
	Cap             qos.Capability
	LawfulIntercept bool
	PricePerGB      float64 // in arbitrary currency units
}

func marshalTerms(w *codec.Writer, t ServiceTerms) {
	w.Uint32(uint32(len(t.Cap.QCIs)))
	for _, q := range t.Cap.QCIs {
		w.Byte(byte(q))
	}
	w.Uint64(t.Cap.MaxDLAmbrBps)
	w.Uint64(t.Cap.MaxULAmbrBps)
	w.Bool(t.Cap.GBRSupported)
	w.Bool(t.LawfulIntercept)
	w.Float64(t.PricePerGB)
}

// termsFixedLen is what marshalTerms writes besides one byte per QCI.
const termsFixedLen = 30

// maxQCIs bounds a decoded capability: the standard defines fewer than 64.
const maxQCIs = 64

func unmarshalTerms(r *codec.Reader) (ServiceTerms, error) {
	var t ServiceTerms
	n := r.Uint32()
	if n > maxQCIs {
		return t, fmt.Errorf("%w: %d QCIs in a capability", ErrBadRequest, n)
	}
	for i := uint32(0); i < n; i++ {
		t.Cap.QCIs = append(t.Cap.QCIs, qos.QCI(r.Byte()))
	}
	t.Cap.MaxDLAmbrBps = r.Uint64()
	t.Cap.MaxULAmbrBps = r.Uint64()
	t.Cap.GBRSupported = r.Bool()
	t.LawfulIntercept = r.Bool()
	t.PricePerGB = r.Float64()
	return t, nil
}

// AuthReqT is the bTelco's augmented, signed forward of the UE request to
// the broker (Fig. 3 top): authReqT = sign_T(authReqU || idT || terms),
// accompanied by the bTelco's CA certificate. A bTelco that holds the
// broker's pass puts a MAC under it where the signature goes (pass.go).
type AuthReqT struct {
	ReqU  AuthReqU
	IDT   string
	Cert  *pki.Certificate
	Terms ServiceTerms
	Sig   []byte // bTelco signature over signedBytes, or its 32-byte pass MAC

	// signedSum is the SHA-256 of the signed span of the bytes a MAC'd
	// request was decoded from (summed): what its pass MAC covers, so the
	// broker checks the MAC without encoding the request again. The
	// decoder is canonical, so it equals the digest of signedBytes — of the
	// fields as decoded, not as a caller may edit them after.
	signedSum [sha256.Size]byte
	summed    bool
}

// signedLen is the size of encodeSigned's output.
func (m *AuthReqT) signedLen() int {
	return 4 + m.ReqU.encodedLen() + 4 + len(m.IDT) + termsFixedLen + len(m.Terms.Cap.QCIs)
}

// encodeSigned appends what the bTelco signs — authReqU || idT || terms —
// each nested message in place: one buffer, no copy per level.
func (m *AuthReqT) encodeSigned(w *codec.Writer) {
	reqU := w.Begin()
	m.ReqU.encode(w)
	w.End(reqU)
	w.String(m.IDT)
	marshalTerms(w, m.Terms)
}

func (m *AuthReqT) signedBytes() []byte {
	w := codec.AppendTo(make([]byte, 0, m.signedLen()))
	m.encodeSigned(&w)
	return w.Out()
}

// Marshal encodes the full request for the wire.
func (m *AuthReqT) Marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, 4+m.signedLen()+certLen+4+len(m.Sig)))
	signed := w.Begin()
	m.encodeSigned(&w)
	w.End(signed)
	marshalCert(&w, m.Cert)
	w.Bytes(m.Sig)
	return w.Out()
}

// UnmarshalAuthReqT decodes an AuthReqT. The three nested encodings are
// parsed where they lie and dropped; what the message keeps is copied out
// of b at the leaves.
func UnmarshalAuthReqT(b []byte) (*AuthReqT, error) {
	r := codec.NewReader(b)
	signed := r.Bytes()
	certB := r.Bytes()
	sig := r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, err
	}
	m := &AuthReqT{Sig: sig}
	if len(sig) == telcoMACSize {
		m.signedSum, m.summed = sha256.Sum256(signed), true
	}
	sr := codec.NewReader(signed)
	reqUB := sr.Bytes()
	m.IDT = sr.String()
	terms, err := unmarshalTerms(sr)
	if err != nil {
		return nil, err
	}
	m.Terms = terms
	if err := sr.Done(); err != nil {
		return nil, err
	}
	reqU, err := UnmarshalAuthReqU(reqUB)
	if err != nil {
		return nil, err
	}
	m.ReqU = *reqU
	cert, err := unmarshalCert(certB)
	if err != nil {
		return nil, err
	}
	m.Cert = cert
	return m, nil
}

// certLen is room for a length-prefixed certificate with Ed25519 and X25519
// keys and names of a few dozen bytes; a longer one grows the buffer.
const certLen = 256

// marshalCert appends c as one length-prefixed field, empty for nil.
func marshalCert(w *codec.Writer, c *pki.Certificate) {
	cert := w.Begin()
	if c != nil {
		w.String(c.Subject)
		w.String(c.Role)
		id := w.Begin() // c.Identity.Bytes(), in place
		w.Bytes(c.Identity.SigPub)
		w.Bytes(c.Identity.BoxPub)
		w.End(id)
		w.Uint64(uint64(c.NotBefore.Unix()))
		w.Uint64(uint64(c.NotAfter.Unix()))
		w.Bytes(c.Signature)
	}
	w.End(cert)
}

func unmarshalCert(b []byte) (*pki.Certificate, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := codec.NewReader(b)
	c := &pki.Certificate{}
	c.Subject = r.String()
	c.Role = r.String()
	idB := r.BytesCopy() // the parsed identity's keys alias it, and outlive b
	nb := r.Uint64()
	na := r.Uint64()
	c.Signature = r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, err
	}
	id, err := pki.ParsePublicIdentity(idB)
	if err != nil {
		return nil, err
	}
	c.Identity = id
	c.NotBefore = time.Unix(int64(nb), 0)
	c.NotAfter = time.Unix(int64(na), 0)
	return c, nil
}

// innerRespT is the broker->bTelco grant payload, sealed to the bTelco:
// "identifiers of U and T, a shared secret ss, and QoS parameters".
// The UE identifier is an opaque per-session reference (URef), not the
// real idU — the bTelco still never learns the user's identity.
//
// A signed grant also carries the broker's own identifier and the pass T's
// later requests to it are MAC'd under (DESIGN.md §2.9); both are empty in
// the MAC-mode grants that follow. They alias the buffer they were read
// from.
type innerRespT struct {
	URef   string
	IDT    string
	SS     nas.MasterKey
	Params qos.Params
	LI     bool
	IDB    []byte
	Pass   []byte
}

func (v *innerRespT) marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, 70+len(v.URef)+len(v.IDT)+len(v.IDB)+len(v.Pass)))
	w.String(v.URef)
	w.String(v.IDT)
	w.Bytes(v.SS[:])
	w.Byte(byte(v.Params.QCI))
	w.Uint64(v.Params.DLAmbrBps)
	w.Uint64(v.Params.ULAmbrBps)
	w.Bool(v.LI)
	w.Bytes(v.IDB)
	w.Bytes(v.Pass)
	return w.Out()
}

func (v *innerRespT) unmarshal(b []byte) error {
	r := codec.NewReader(b)
	v.URef = r.String()
	v.IDT = r.String()
	ss := r.Bytes()
	v.Params.QCI = qos.QCI(r.Byte())
	v.Params.DLAmbrBps = r.Uint64()
	v.Params.ULAmbrBps = r.Uint64()
	v.LI = r.Bool()
	v.IDB = r.Bytes()
	v.Pass = r.Bytes()
	if err := r.Done(); err != nil {
		return err
	}
	if len(ss) != len(v.SS) || (len(v.Pass) != 0 && len(v.Pass) != telcoMACSize) {
		return fmt.Errorf("%w: ss length %d, pass length %d", ErrBadRequest, len(ss), len(v.Pass))
	}
	copy(v.SS[:], ss)
	return nil
}

// innerRespU is the broker->UE payload, sealed to the UE: "identifiers of
// U and T, ss, and the U-generated nonce" — and the ticket U's next attach
// to this broker rides (DESIGN.md §2.8), which exists nowhere but in here.
type innerRespU struct {
	IDU    string
	IDT    string
	URef   string // session reference for the UE's billing reports
	SS     nas.MasterKey
	Nonce  [NonceSize]byte
	Ticket pki.Ticket
}

func (v *innerRespU) marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, 140+len(v.IDU)+len(v.IDT)+len(v.URef)))
	w.String(v.IDU)
	w.String(v.IDT)
	w.String(v.URef)
	w.Bytes(v.SS[:])
	w.Bytes(v.Nonce[:])
	w.Bytes(v.Ticket.Locator[:])
	w.Bytes(v.Ticket.Key[:])
	return w.Out()
}

func (v *innerRespU) unmarshal(b []byte) error {
	r := codec.NewReader(b)
	v.IDU = r.String()
	v.IDT = r.String()
	v.URef = r.String()
	ss := r.Bytes()
	nonce := r.Bytes()
	loc := r.Bytes()
	key := r.Bytes()
	if err := r.Done(); err != nil {
		return err
	}
	if len(ss) != len(v.SS) || len(nonce) != NonceSize ||
		len(loc) != len(v.Ticket.Locator) || len(key) != len(v.Ticket.Key) {
		return ErrBadRequest
	}
	copy(v.SS[:], ss)
	copy(v.Nonce[:], nonce)
	copy(v.Ticket.Locator[:], loc)
	copy(v.Ticket.Key[:], key)
	return nil
}

// AuthRespT is the sealed+signed grant for the bTelco. The answer to a
// MAC'd authReqT is sealed on the bTelco's pass and carries no Sig.
type AuthRespT struct {
	Sealed []byte
	Sig    []byte
}

// AuthRespU is the confirmation for the UE, sealed on the exchange of its
// own request and unsigned: opening there is what authenticates the broker
// (DESIGN.md §2.7).
type AuthRespU struct {
	Sealed []byte
}

// Marshal encodes an AuthRespU for transport inside AttachAccept.
func (m *AuthRespU) Marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, 4+len(m.Sealed)))
	w.Bytes(m.Sealed)
	return w.Out()
}

// UnmarshalAuthRespU decodes an AuthRespU.
func UnmarshalAuthRespU(b []byte) (*AuthRespU, error) {
	r := codec.NewReader(b)
	m := &AuthRespU{}
	m.Sealed = r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// AuthResp is the broker's reply to the bTelco: grant (both sub-responses)
// or denial with a cause. TelcoScore piggybacks the broker's current
// reputation for the requesting bTelco on every reply — the score
// propagation that lets bTelcos price honestly-earned standing into their
// offers and lets the serving infrastructure steer UEs away from
// low-reputation operators without a separate lookup.
type AuthResp struct {
	Granted    bool
	Cause      string
	TelcoScore float64
	T          AuthRespT
	U          AuthRespU
}

// Marshal encodes the broker reply for the wire.
func (m *AuthResp) Marshal() []byte {
	w := codec.AppendTo(make([]byte, 0, 25+len(m.Cause)+len(m.T.Sealed)+len(m.T.Sig)+len(m.U.Sealed)))
	w.Bool(m.Granted)
	w.String(m.Cause)
	w.Float64(m.TelcoScore)
	w.Bytes(m.T.Sealed)
	w.Bytes(m.T.Sig)
	w.Bytes(m.U.Sealed)
	return w.Out()
}

// UnmarshalAuthResp decodes a broker reply.
func UnmarshalAuthResp(b []byte) (*AuthResp, error) {
	r := codec.NewReader(b)
	m := &AuthResp{}
	m.Granted = r.Bool()
	m.Cause = r.String()
	m.TelcoScore = r.Float64()
	m.T.Sealed = r.BytesCopy()
	m.T.Sig = r.BytesCopy()
	m.U.Sealed = r.BytesCopy()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMasterSecret draws the 32-byte shared secret ss.
func NewMasterSecret() (nas.MasterKey, error) {
	var ss nas.MasterKey
	_, err := io.ReadFull(rand.Reader, ss[:])
	return ss, err
}
