// Package pki provides the public-key identity substrate CellBricks
// replaces SIM shared secrets with (§4.1 of the paper): Ed25519 signing
// identities, a minimal certificate authority for broker and bTelco keys,
// and "sealed boxes" (ephemeral X25519 ECDH + AES-256-GCM) for
// encrypting-to-a-public-key, used by the SAP protocol and the verifiable
// billing reports. The exchange behind a box belongs to the relationship,
// not the message, and between an issuer and a party it has authenticated
// it can be a PRF-derived Ticket — or, for a certified peer, a Pass — instead
// of an X25519 one (sealer.go).
//
// UE keys are issued by the UE's broker and need no certificates (the
// broker recognizes its own issuance); broker and bTelco keys carry CA
// certificates distributed as in standard Internet PKI.
package pki

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Errors returned by verification and sealing operations.
var (
	ErrBadSignature   = errors.New("pki: signature verification failed")
	ErrBadCertificate = errors.New("pki: certificate verification failed")
	ErrExpired        = errors.New("pki: certificate expired")
	ErrDecrypt        = errors.New("pki: sealed box authentication failed")
	ErrShortInput     = errors.New("pki: input too short")
)

// KeyPair is an Ed25519 signing identity plus the matching X25519 key used
// for sealed-box decryption. The X25519 key is derived deterministically
// from the Ed25519 seed so that a single stored secret suffices (as a SIM
// would hold), and only on first use: nothing seals to a UE's long-term
// key, so a UE's KeyPair never derives it.
type KeyPair struct {
	Pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	boxOnce sync.Once
	boxPriv *ecdh.PrivateKey
	boxPub  []byte
	memo    boxMemo // epk → key of the exchanges Open has authenticated

	// ticketSecret keys the PRF behind MintTicket: derived from the seed, so
	// a KeyPair rebuilt from it honours every ticket the old one minted.
	ticketSecret boxKeyBytes
}

// GenerateKeyPair creates a fresh identity using crypto/rand.
func GenerateKeyPair() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generate: %w", err)
	}
	return newKeyPair(pub, priv)
}

// KeyPairFromSeed creates a deterministic identity from a 32-byte seed.
// Intended for tests and reproducible experiments.
func KeyPairFromSeed(seed []byte) (*KeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("pki: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return newKeyPair(priv.Public().(ed25519.PublicKey), priv)
}

func newKeyPair(pub ed25519.PublicKey, priv ed25519.PrivateKey) (*KeyPair, error) {
	seed := boxKeyBytes(priv.Seed())
	return &KeyPair{
		Pub:          pub,
		priv:         priv,
		ticketSecret: mac32(&seed, "cellbricks-ticket-v1", nil, ""),
	}, nil
}

// box returns the X25519 half, deriving it from the Ed25519 seed via
// HMAC-SHA256 with a domain-separation label on the first call. X25519
// clamps the scalar itself, so the HMAC output is the private key as is.
func (k *KeyPair) box() (*ecdh.PrivateKey, []byte) {
	k.boxOnce.Do(func() {
		seed := boxKeyBytes(k.priv.Seed())
		boxSeed := mac32(&seed, "cellbricks-box-v1", nil, "")
		priv, err := ecdh.X25519().NewPrivateKey(boxSeed[:])
		if err != nil {
			panic("pki: derive box key: " + err.Error()) // only a length other than 32 fails
		}
		k.boxPriv, k.boxPub = priv, priv.PublicKey().Bytes()
	})
	return k.boxPriv, k.boxPub
}

// Public returns the identity's public half for distribution, deriving the
// box key if nothing has yet.
func (k *KeyPair) Public() PublicIdentity {
	_, boxPub := k.box()
	return PublicIdentity{SigPub: append(ed25519.PublicKey(nil), k.Pub...), BoxPub: append([]byte(nil), boxPub...)}
}

// Sign signs msg with the Ed25519 key.
func (k *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(k.priv, msg) }

// PublicIdentity is the distributable half of a KeyPair.
type PublicIdentity struct {
	SigPub ed25519.PublicKey
	BoxPub []byte // X25519 public key
}

// Verify checks an Ed25519 signature.
func (p PublicIdentity) Verify(msg, sig []byte) error {
	if len(p.SigPub) != ed25519.PublicKeySize || !ed25519.Verify(p.SigPub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// Digest is the identity digest the SAP protocol uses as an identifier: the
// SHA-256 of the signing public key. The paper notes an identifier "could
// be the digest of the owner's public key".
func (p PublicIdentity) Digest() string {
	sum := sha256.Sum256(p.SigPub)
	return hex.EncodeToString(sum[:16])
}

// Bytes flattens the identity for embedding in certificates and messages.
func (p PublicIdentity) Bytes() []byte {
	out := make([]byte, 0, len(p.SigPub)+len(p.BoxPub)+8)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.SigPub)))
	out = append(out, p.SigPub...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.BoxPub)))
	out = append(out, p.BoxPub...)
	return out
}

// ParsePublicIdentity reverses PublicIdentity.Bytes.
func ParsePublicIdentity(b []byte) (PublicIdentity, error) {
	var p PublicIdentity
	sig, rest, err := readChunk(b)
	if err != nil {
		return p, err
	}
	box, rest, err := readChunk(rest)
	if err != nil {
		return p, err
	}
	if len(rest) != 0 {
		return p, fmt.Errorf("pki: %d trailing bytes in identity", len(rest))
	}
	if len(sig) != ed25519.PublicKeySize {
		return p, fmt.Errorf("pki: bad signing key length %d", len(sig))
	}
	p.SigPub = ed25519.PublicKey(sig)
	p.BoxPub = box
	return p, nil
}

func readChunk(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, ErrShortInput
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(len(b)-4) < uint64(n) {
		return nil, nil, ErrShortInput
	}
	return b[4 : 4+n], b[4+n:], nil
}

// Certificate binds a subject name and role to a public identity, signed
// by a CA — the standard-PKI assumption the paper makes for broker and
// bTelco keys.
type Certificate struct {
	Subject   string
	Role      string // "broker" | "btelco" | "ca"
	Identity  PublicIdentity
	NotBefore time.Time
	NotAfter  time.Time
	Signature []byte // CA signature over signedBytes
}

func (c *Certificate) signedBytes() []byte {
	var out []byte
	out = appendString(out, c.Subject)
	out = appendString(out, c.Role)
	out = append(out, c.Identity.Bytes()...)
	out = binary.BigEndian.AppendUint64(out, uint64(c.NotBefore.Unix()))
	out = binary.BigEndian.AppendUint64(out, uint64(c.NotAfter.Unix()))
	return out
}

// Digest is the SHA-256 of the certificate's full contents and signature:
// what CertVerifier keys its cache by, and the public name of the
// relationship a Pass belongs to (sealer.go).
func (c *Certificate) Digest() (d [sha256.Size]byte) {
	h := sha256.New()
	h.Write(c.signedBytes())
	h.Write(c.Signature)
	h.Sum(d[:0])
	return d
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// CA is a certificate authority.
type CA struct {
	Name string
	key  *KeyPair
}

// NewCA creates a certificate authority with a fresh key.
func NewCA(name string) (*CA, error) {
	k, err := GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	return &CA{Name: name, key: k}, nil
}

// NewCAFromSeed creates a deterministic CA for tests.
func NewCAFromSeed(name string, seed []byte) (*CA, error) {
	k, err := KeyPairFromSeed(seed)
	if err != nil {
		return nil, err
	}
	return &CA{Name: name, key: k}, nil
}

// Public returns the CA's verification identity (the trust anchor).
func (ca *CA) Public() PublicIdentity { return ca.key.Public() }

// Issue signs a certificate for the subject, valid for the given window.
func (ca *CA) Issue(subject, role string, id PublicIdentity, notBefore, notAfter time.Time) *Certificate {
	c := &Certificate{
		Subject:   subject,
		Role:      role,
		Identity:  id,
		NotBefore: notBefore.Truncate(time.Second),
		NotAfter:  notAfter.Truncate(time.Second),
	}
	c.Signature = ca.key.Sign(c.signedBytes())
	return c
}

// VerifyCert checks a certificate against a trust anchor at time now.
func VerifyCert(anchor PublicIdentity, c *Certificate, now time.Time) error {
	if c == nil {
		return ErrBadCertificate
	}
	if err := anchor.Verify(c.signedBytes(), c.Signature); err != nil {
		return ErrBadCertificate
	}
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return ErrExpired
	}
	return nil
}

// CertVerifier memoizes VerifyCert for a fixed trust anchor: the broker
// sees the same bTelco certificate on every attachment it grants through
// that bTelco, so after the first verification the Ed25519 operation
// (tens of microseconds, the single most expensive step of SAP request
// handling) can be skipped. Entries are keyed by a digest of the full
// certificate contents *and* signature, so any tampering misses the
// cache, and the validity window is still checked against `now` on every
// call — a cached certificate that has since expired is rejected.
//
// The cache is bounded; when full, an arbitrary entry is evicted (the
// working set is "the bTelcos currently near this broker's users", far
// below any sensible bound). Safe for concurrent use.
type CertVerifier struct {
	anchor PublicIdentity
	max    int

	mu   sync.Mutex
	seen map[[32]byte]certWindow
}

type certWindow struct{ notBefore, notAfter time.Time }

// NewCertVerifier builds a verifier for one trust anchor. max bounds the
// cache entry count; <= 0 selects a default of 256.
func NewCertVerifier(anchor PublicIdentity, max int) *CertVerifier {
	if max <= 0 {
		max = 256
	}
	return &CertVerifier{anchor: anchor, max: max, seen: make(map[[32]byte]certWindow)}
}

// Verify is VerifyCert with memoized signature checks.
func (v *CertVerifier) Verify(c *Certificate, now time.Time) error {
	_, err := v.VerifyDigest(c, now)
	return err
}

// VerifyDigest is Verify, also returning the certificate digest it keyed
// the cache by (c.Digest()), so a caller that needs it does not hash twice.
func (v *CertVerifier) VerifyDigest(c *Certificate, now time.Time) (key [sha256.Size]byte, err error) {
	if c == nil {
		return key, ErrBadCertificate
	}
	key = c.Digest()

	v.mu.Lock()
	w, hit := v.seen[key]
	v.mu.Unlock()
	if hit {
		if now.Before(w.notBefore) || now.After(w.notAfter) {
			return key, ErrExpired
		}
		return key, nil
	}
	if err := VerifyCert(v.anchor, c, now); err != nil {
		// Failures are never cached: ErrExpired depends on `now`, and a
		// bad signature costs the attacker the full verification anyway.
		return key, err
	}
	v.mu.Lock()
	if len(v.seen) >= v.max {
		for k := range v.seen {
			delete(v.seen, k)
			break
		}
	}
	v.seen[key] = certWindow{notBefore: c.NotBefore, notAfter: c.NotAfter}
	v.mu.Unlock()
	return key, nil
}

// NewNonce returns a 16-byte random nonce (replay protection in SAP).
func NewNonce() ([16]byte, error) {
	var n [16]byte
	_, err := io.ReadFull(rand.Reader, n[:])
	return n, err
}
