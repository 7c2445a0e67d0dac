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
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

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

func (v *AuthVec) fields(c codec.Coder) codec.Coder {
	c.String(&v.IDU)
	c.String(&v.IDB)
	c.String(&v.IDT)
	c.Fixed(v.Nonce[:])
	return c
}

func (v *AuthVec) unmarshal(b []byte) error { return codec.Decode(b, v.fields) }

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

func (m *AuthReqU) fields(c codec.Coder) codec.Coder {
	c.String(&m.IDB)
	c.Bytes(&m.SealedVec)
	c.Bytes(&m.Sig)
	return c
}

// Marshal encodes the request for transport inside a NAS message.
func (m *AuthReqU) Marshal() []byte { return codec.Encode(m.fields) }

// UnmarshalAuthReqU decodes an AuthReqU.
func UnmarshalAuthReqU(b []byte) (*AuthReqU, error) { return decode(b, new(AuthReqU)) }

// decode decodes b into m: m, or nil and the error.
func decode[M interface{ fields(codec.Coder) codec.Coder }](b []byte, m M) (M, error) {
	if err := codec.Decode(b, m.fields); err != nil {
		var none M
		return none, err
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

// maxQCIs bounds a decoded capability: the standard defines fewer than 64.
const maxQCIs = 64

func (t *ServiceTerms) fields(c codec.Coder) codec.Coder {
	qcis := codec.List(&c, &t.Cap.QCIs, 1, maxQCIs, ErrBadRequest)
	for i := range qcis {
		c.Byte((*byte)(&qcis[i]))
	}
	c.Uint64(&t.Cap.MaxDLAmbrBps)
	c.Uint64(&t.Cap.MaxULAmbrBps)
	c.Bool(&t.Cap.GBRSupported)
	c.Bool(&t.LawfulIntercept)
	c.Float64(&t.PricePerGB)
	return c
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
	// decoder is canonical (FuzzUnmarshalAuthReqT), so it equals the digest
	// of signedBytes — of the fields as decoded, not as a caller may edit
	// them after.
	signedSum [sha256.Size]byte
	summed    bool
}

// signed lists what the bTelco signs — authReqU || idT || terms — the
// nested request in place: one buffer, no copy per level.
func (m *AuthReqT) signed(c codec.Coder) codec.Coder {
	reqU := c.Begin()
	c = m.ReqU.fields(c)
	c.End(reqU)
	c.String(&m.IDT)
	return m.Terms.fields(c)
}

func (m *AuthReqT) signedBytes() []byte { return codec.Encode(m.signed) }

// fields lists the request on the wire: the signed span, the certificate
// and Sig. Read, a MAC-sized Sig has the span's digest taken there and then.
func (m *AuthReqT) fields(c codec.Coder) codec.Coder {
	span := c.Begin()
	c = m.signed(c)
	signed := c.End(span)
	c = certFields(c, &m.Cert, m.IDT)
	c.Bytes(&m.Sig)
	if signed != nil && len(m.Sig) == telcoMACSize {
		m.signedSum, m.summed = sha256.Sum256(signed), true
	}
	return c
}

// Marshal encodes the full request for the wire.
func (m *AuthReqT) Marshal() []byte { return codec.Encode(m.fields) }

// UnmarshalAuthReqT decodes an AuthReqT. The nested encodings are parsed
// where they lie; what the message keeps is copied out of b at the leaves.
func UnmarshalAuthReqT(b []byte) (*AuthReqT, error) { return decode(b, new(AuthReqT)) }

var errCertKey = fmt.Errorf("%w: certificate signing key length", ErrBadRequest)

// telcoRole is the role a bTelco's certificate carries (authTelco).
const telcoRole = "btelco"

// certFields lists a certificate as SAP carries it: one length-prefixed
// field, empty for none, with the identity nested where the CA's signed
// bytes have it flat (pki.Certificate.signed) — two layouts on purpose.
// Every certificate SAP carries is a bTelco's, sent by the bTelco idT its
// message names: read, the subject and role adopt idT and telcoRole when
// they match (codec.Coder.String).
func certFields(c codec.Coder, cert **pki.Certificate, idT string) codec.Coder {
	span := c.Begin()
	if c.Optional(*cert != nil) {
		if *cert == nil {
			*cert = &pki.Certificate{Subject: idT, Role: telcoRole}
		}
		x := *cert
		c.String(&x.Subject)
		c.String(&x.Role)
		id := c.Begin()
		c.Bytes((*[]byte)(&x.Identity.SigPub))
		c.Bytes(&x.Identity.BoxPub)
		c.Check(len(x.Identity.SigPub) == ed25519.PublicKeySize, errCertKey)
		c.End(id)
		c.Unix(&x.NotBefore)
		c.Unix(&x.NotAfter)
		c.Bytes(&x.Signature)
	}
	c.End(span)
	return c
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

func (v *innerRespT) fields(c codec.Coder) codec.Coder {
	c.String(&v.URef)
	c.String(&v.IDT)
	c.Fixed(v.SS[:])
	c.Byte((*byte)(&v.Params.QCI))
	c.Uint64(&v.Params.DLAmbrBps)
	c.Uint64(&v.Params.ULAmbrBps)
	c.Bool(&v.LI)
	c.View(&v.IDB)
	c.View(&v.Pass)
	c.Check(len(v.Pass) == 0 || len(v.Pass) == telcoMACSize, ErrBadRequest)
	return c
}

func (v *innerRespT) unmarshal(b []byte) error { return codec.Decode(b, v.fields) }

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

func (v *innerRespU) fields(c codec.Coder) codec.Coder {
	c.String(&v.IDU)
	c.String(&v.IDT)
	c.String(&v.URef)
	c.Fixed(v.SS[:])
	c.Fixed(v.Nonce[:])
	c.Fixed(v.Ticket.Locator[:])
	c.Fixed(v.Ticket.Key[:])
	return c
}

func (v *innerRespU) unmarshal(b []byte) error { return codec.Decode(b, v.fields) }

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

func (m *AuthRespU) fields(c codec.Coder) codec.Coder {
	c.Bytes(&m.Sealed)
	return c
}

// Marshal encodes an AuthRespU for transport inside AttachAccept.
func (m *AuthRespU) Marshal() []byte { return codec.Encode(m.fields) }

// UnmarshalAuthRespU decodes an AuthRespU.
func UnmarshalAuthRespU(b []byte) (*AuthRespU, error) { return decode(b, new(AuthRespU)) }

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

func (m *AuthResp) fields(c codec.Coder) codec.Coder {
	c.Bool(&m.Granted)
	c.String(&m.Cause)
	c.Float64(&m.TelcoScore)
	c.Bytes(&m.T.Sealed)
	c.Bytes(&m.T.Sig)
	c.Bytes(&m.U.Sealed)
	return c
}

// Marshal encodes the broker reply for the wire.
func (m *AuthResp) Marshal() []byte { return codec.Encode(m.fields) }

// UnmarshalAuthResp decodes a broker reply.
func UnmarshalAuthResp(b []byte) (*AuthResp, error) { return decode(b, new(AuthResp)) }

// NewMasterSecret draws the 32-byte shared secret ss.
func NewMasterSecret() (nas.MasterKey, error) {
	var ss nas.MasterKey
	_, err := io.ReadFull(rand.Reader, ss[:])
	return ss, err
}
