package pki

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"sync"
)

// One exchange per relationship (DESIGN.md §2.7). A sealed box is
// epk(32) ‖ nonce(12) ‖ AES-256-GCM ciphertext, keyed from an X25519
// exchange between an ephemeral sender key and the recipient's long-term
// box key. The exchange belongs to the sender–recipient relationship, not
// to the message: a Sealer does keygen + ECDH once and seals any number of
// messages, the recipient remembers epk → key for the exchanges it has
// already authenticated, and a reply comes back on the request's exchange
// under a direction-separated key. The layout is the same for all three —
// and for a fourth kind of exchange that runs no X25519 at all: a Ticket,
// whose 32-byte prefix is a locator its issuer turns back into the key with
// one PRF call (DESIGN.md §2.8). A Pass is the Ticket of a whole
// relationship: its locator is a certificate digest (§2.9).

const (
	epkSize      = 32
	boxNonceSize = 12
	gcmTagSize   = 16
	boxOverhead  = epkSize + boxNonceSize + gcmTagSize

	// boxMemoSize bounds a KeyPair's epk → key memo.
	boxMemoSize = 1024
	// maxResidentSealers bounds a Sealers set, like CertVerifier's cache.
	maxResidentSealers = 256
	// sealsPerResident is how many boxes ride one resident exchange before
	// it is replaced — far inside AES-GCM's 2³² random-nonce budget.
	sealsPerResident = 1 << 20
)

type boxKeyBytes = [sha256.Size]byte

// Sealer seals messages to one recipient over one X25519 exchange. It is
// immutable after NewSealer and safe for concurrent use.
type Sealer struct {
	epk      [epkSize]byte
	aead     cipher.AEAD // request direction
	replyKey boxKeyBytes
	// macKey tags what rides a ticket's exchange (MACKey); ticketed says
	// there is one. An X25519 exchange has none: anybody can start one, so
	// a MAC under its key would say nothing about who sent it.
	macKey   boxKeyBytes
	ticketed bool
}

// NewSealer draws an ephemeral key and runs the exchange with recipient's
// box key: the only asymmetric work any number of Seal calls will cost.
func NewSealer(recipient PublicIdentity) (*Sealer, error) {
	rpub, err := ecdh.X25519().NewPublicKey(recipient.BoxPub)
	if err != nil {
		return nil, fmt.Errorf("pki: recipient box key: %w", err)
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(rpub)
	if err != nil {
		return nil, err
	}
	s := &Sealer{}
	copy(s.epk[:], eph.PublicKey().Bytes())
	key := boxKey(shared, s.epk[:], recipient.BoxPub)
	if s.aead, err = newBoxAEAD(key[:]); err != nil {
		return nil, err
	}
	s.replyKey = replyKey(key)
	return s, nil
}

// Seal encrypts msg on the sealer's exchange under a fresh random nonce.
func (s *Sealer) Seal(msg []byte) ([]byte, error) {
	return sealBox(s.aead, s.epk[:], msg)
}

// OpenReply decrypts a box the recipient built with SealReply from a box
// of this sealer. A reply to any other exchange, and a request-direction
// box of this one, fail with ErrDecrypt.
func (s *Sealer) OpenReply(box []byte) ([]byte, error) {
	if len(box) < boxOverhead {
		return nil, ErrShortInput
	}
	if subtle.ConstantTimeCompare(box[:epkSize], s.epk[:]) != 1 {
		return nil, ErrDecrypt
	}
	return openBox(s.replyKey, box)
}

// Ticket is an exchange nobody has to run (DESIGN.md §2.8). Its issuer
// mints it for a party it has just authenticated and hands it over inside a
// sealed box; the holder's next box to the issuer rides it — Locator where
// an ephemeral key would go, keyed by Key — and the issuer re-derives Key
// from Locator and one secret derived from its long-term seed, so it keeps
// no table. Locator is 16 random bytes and a 16-byte PRF tag over those and
// the identifier the ticket was minted for.
type Ticket struct {
	Locator [epkSize]byte
	Key     boxKeyBytes
}

// ticketRandSize is the random half of a locator; the rest is its tag.
const ticketRandSize = 16

// MintTicket draws a ticket bound to id.
func (k *KeyPair) MintTicket(id string) (t Ticket, err error) {
	if _, err = io.ReadFull(rand.Reader, t.Locator[:ticketRandSize]); err != nil {
		return t, err
	}
	tag := mac32(&k.ticketSecret, ticketBindLabel, t.Locator[:ticketRandSize], id)
	copy(t.Locator[ticketRandSize:], tag[:])
	t.Key = mac32(&k.ticketSecret, ticketKeyLabel, t.Locator[:], "")
	return t, nil
}

// TicketBound reports whether box rides a ticket k minted for id. A box
// that opened under k proves its sender holds the key of its locator; this
// is what ties that locator to one identifier, so a ticket holder cannot
// speak as anybody else.
func (k *KeyPair) TicketBound(box []byte, id string) bool {
	if len(box) < epkSize {
		return false
	}
	tag := mac32(&k.ticketSecret, ticketBindLabel, box[:ticketRandSize], id)
	return subtle.ConstantTimeCompare(tag[:epkSize-ticketRandSize], box[ticketRandSize:epkSize]) == 1
}

// TicketSealer returns the sealer of t's exchange: no keygen, no ECDH.
func TicketSealer(t Ticket) (*Sealer, error) {
	s := &Sealer{epk: t.Locator, replyKey: replyKey(t.Key), macKey: ticketMACKey(t.Key), ticketed: true}
	var err error
	if s.aead, err = newBoxAEAD(t.Key[:]); err != nil {
		return nil, err
	}
	return s, nil
}

// MACKey returns, for a sealer that rides a ticket, the ticket its holder
// tags messages on that exchange with (Ticket.Tag): the same locator, a key
// derived from the ticket's and used for nothing else. The issuer gets it
// back from any box of the exchange with TicketMAC. ok is false for an
// X25519 exchange.
func (s *Sealer) MACKey() (t Ticket, ok bool) {
	return Ticket{Locator: s.epk, Key: s.macKey}, s.ticketed
}

// TicketMAC re-derives the MACKey of the exchange box rides, provided that
// is a ticket k minted for id. A tag that verifies under it was made by
// id's holder of that ticket, or by k's owner.
func (k *KeyPair) TicketMAC(box []byte, id string) (t Ticket, ok bool) {
	if !k.TicketBound(box, id) {
		return t, false
	}
	copy(t.Locator[:], box)
	t.Key = ticketMACKey(mac32(&k.ticketSecret, ticketKeyLabel, t.Locator[:], ""))
	return t, true
}

// ticketMACKey separates a ticket's tagging key from its AES-GCM key.
func ticketMACKey(key boxKeyBytes) boxKeyBytes {
	return mac32(&key, "cellbricks-ticket-mac-v1", nil, "")
}

// Pass is the ticket of a whole relationship (DESIGN.md §2.9): the key k
// shares with the holder of one certificate, named by that certificate's
// digest. Like a UE's ticket it is derived, never stored — but it is not
// random and not single-use: the same digest always yields the same pass, so
// k's owner re-derives it from the certificate each request carries and the
// peer fetches it once, inside a sealed and signed grant.
func (k *KeyPair) Pass(certDigest [sha256.Size]byte) Ticket {
	return Ticket{Locator: certDigest, Key: mac32(&k.ticketSecret, passLabel, certDigest[:], "")}
}

// Reply is the ticket of t's reverse direction: what TicketSealer(t.Reply())
// seals, TicketSealer(t).OpenReply opens and nothing else does. For a Pass,
// whose issuer answers on it for as long as the relationship lasts — a fixed
// key, so GCM's 2³² random-nonce budget spans the certificate's lifetime
// here, not sealsPerResident.
func (t Ticket) Reply() Ticket { return Ticket{Locator: t.Locator, Key: replyKey(t.Key)} }

// Tag authenticates msg under the ticket's key for the purpose label names:
// SHA-256 of msg, then one stack-only HMAC. Verify with subtle.ConstantTimeCompare.
func (t *Ticket) Tag(label string, msg []byte) [sha256.Size]byte {
	sum := sha256.Sum256(msg)
	return mac32(&t.Key, label, sum[:], "")
}

// Seal encrypts msg so only the holder of the recipient's box key can read
// it, on an exchange of its own. Output layout: epk(32) || nonce(12) ||
// ciphertext.
func Seal(recipient PublicIdentity, msg []byte) ([]byte, error) {
	s, err := NewSealer(recipient)
	if err != nil {
		return nil, err
	}
	return s.Seal(msg)
}

// Open decrypts a sealed box addressed to k. The key of an exchange whose
// box authenticated is remembered, so later boxes on it cost no derivation;
// a forgotten exchange is recomputed, so the memo never decides the result.
func (k *KeyPair) Open(box []byte) ([]byte, error) {
	if len(box) < boxOverhead {
		return nil, ErrShortInput
	}
	pt, _, err := k.open(box)
	return pt, err
}

// SealReply encrypts msg to whoever sealed requestBox to k, on that box's
// exchange: the reply echoes its prefix and is keyed for the reverse
// direction, so only the holder of the request's Sealer opens it. The
// caller has opened requestBox; an exchange the memo no longer holds is
// recomputed.
func (k *KeyPair) SealReply(requestBox, msg []byte) ([]byte, error) {
	if len(requestBox) < boxOverhead {
		return nil, ErrShortInput
	}
	key, known := k.memo.get(requestBox[:epkSize])
	if !known {
		var err error
		if _, key, err = k.open(requestBox); err != nil {
			return nil, err
		}
	}
	rk := replyKey(key)
	aead, err := newBoxAEAD(rk[:])
	if err != nil {
		return nil, err
	}
	return sealBox(aead, requestBox[:epkSize], msg)
}

// open decrypts box and returns the request-direction key of its exchange,
// from the memo or by derivation. Nothing in the clear says whether a
// prefix the memo does not know is a ticket locator or an X25519 key, so
// the PRF (a fraction of a microsecond) is tried before the ECDH (tens):
// only a box sealed under the ticket key authenticates under it. An epk no
// exchange can have produced (a low-order point) is ErrDecrypt like any
// other forgery.
func (k *KeyPair) open(box []byte) (pt []byte, key boxKeyBytes, err error) {
	prefix := box[:epkSize]
	var known bool
	if key, known = k.memo.get(prefix); known {
		pt, err = openBox(key, box)
		return pt, key, err
	}
	key = mac32(&k.ticketSecret, ticketKeyLabel, prefix, "")
	if pt, err = openBox(key, box); err != nil {
		pub, perr := ecdh.X25519().NewPublicKey(prefix)
		if perr != nil {
			return nil, key, ErrDecrypt
		}
		boxPriv, boxPub := k.box()
		shared, serr := boxPriv.ECDH(pub)
		if serr != nil {
			return nil, key, ErrDecrypt
		}
		key = boxKey(shared, prefix, boxPub)
		pt, err = openBox(key, box)
	}
	if err == nil {
		k.memo.put(prefix, key)
	}
	return pt, key, err
}

func boxKey(shared, epk, rpk []byte) (key boxKeyBytes) {
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte("cellbricks-seal-v1"))
	mac.Write(epk)
	mac.Write(rpk)
	mac.Sum(key[:0])
	return key
}

// replyKey separates the recipient → sender direction of an exchange.
func replyKey(key boxKeyBytes) boxKeyBytes {
	return mac32(&key, "cellbricks-seal-reply-v1", nil, "")
}

// Labels of the three derivations under a KeyPair's ticket secret.
const (
	ticketKeyLabel  = "cellbricks-ticket-key-v1"
	ticketBindLabel = "cellbricks-ticket-bind-v1"
	passLabel       = "cellbricks-pass-v1"
)

func newBoxAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func sealBox(aead cipher.AEAD, epk, msg []byte) ([]byte, error) {
	out := make([]byte, epkSize+boxNonceSize, boxOverhead+len(msg))
	copy(out, epk)
	nonce := out[epkSize:]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	return aead.Seal(out, nonce, msg, nil), nil
}

func openBox(key boxKeyBytes, box []byte) ([]byte, error) {
	aead, err := newBoxAEAD(key[:])
	if err != nil {
		return nil, err
	}
	pt, err := aead.Open(nil, box[epkSize:epkSize+boxNonceSize], box[epkSize+boxNonceSize:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// boxMemo remembers the keys of the last boxMemoSize exchanges a KeyPair
// authenticated, first in first out. It holds 32-byte keys rather than
// cipher.AEADs (an AEAD is ~1 KiB; rebuilding one is a fraction of a
// microsecond) and allocates nothing until the first put: most KeyPairs
// in a world are UEs, which never open a request-direction box.
type boxMemo struct {
	mu   sync.Mutex
	keys map[[epkSize]byte]boxKeyBytes
	ring [][epkSize]byte // insertion order; ring[next] is the oldest once full
	next int
}

func (m *boxMemo) get(epk []byte) (boxKeyBytes, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key, ok := m.keys[[epkSize]byte(epk)]
	return key, ok
}

func (m *boxMemo) put(epk []byte, key boxKeyBytes) {
	e := [epkSize]byte(epk)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.keys[e]; dup {
		return
	}
	if m.keys == nil {
		m.keys = make(map[[epkSize]byte]boxKeyBytes)
	}
	if len(m.ring) < boxMemoSize {
		m.ring = append(m.ring, e)
	} else {
		delete(m.keys, m.ring[m.next])
		m.ring[m.next] = e
		m.next = (m.next + 1) % boxMemoSize
	}
	m.keys[e] = key
}

// Sealers keeps one resident Sealer per infrastructure recipient — the
// broker's to each certified bTelco, a bTelco's to each broker — so the
// steady stream of boxes between the two costs one exchange per
// sealsPerResident messages. UE keys never get one: a UE's exchange lives
// and dies with one attach (sap.PendingAttach), or its boxes would link
// the UE's sessions to each other. The zero value is ready; safe for
// concurrent use.
type Sealers struct {
	mu sync.Mutex
	to map[string]*residentSealer // by recipient box key
}

type residentSealer struct {
	s    *Sealer
	left int // hand-outs before replacement
}

// To returns the resident sealer for recipient, running a new exchange on
// first contact and after every sealsPerResident hand-outs. Callers seal
// one message per call and do not keep the result.
func (c *Sealers) To(recipient PublicIdentity) (*Sealer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.to[string(recipient.BoxPub)]
	if r == nil || r.left == 0 {
		s, err := NewSealer(recipient)
		if err != nil {
			return nil, err
		}
		if c.to == nil {
			c.to = make(map[string]*residentSealer)
		}
		if r == nil && len(c.to) >= maxResidentSealers {
			for k := range c.to {
				delete(c.to, k)
				break
			}
		}
		r = &residentSealer{s: s, left: sealsPerResident}
		c.to[string(recipient.BoxPub)] = r
	}
	r.left--
	return r.s, nil
}
