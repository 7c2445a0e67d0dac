package pki

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"runtime"
	"sync"

	"cellbricks/internal/codec"
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
	// keptOpeners bounds the AEADs a KeyPair keeps for the exchanges that
	// keep sending it boxes; keepAfterHits is how many memo hits make one
	// (boxMemo.opener).
	keptOpeners   = 8
	keepAfterHits = 2
	// maxResidentSealers bounds a Sealers set, like CertVerifier's cache.
	maxResidentSealers = 256
	// sealsPerResident is how many boxes ride one resident exchange before
	// it is replaced — far inside AES-GCM's 2³² random-nonce budget.
	sealsPerResident = 1 << 20
)

type boxKeyBytes = [sha256.Size]byte

// Sealer seals messages to one recipient over one exchange and opens the
// replies that come back on it. It holds both directions' AES-GCM, each
// built once, when the exchange is: a resident Sealer's Seal and OpenReply
// allocate only the box and the plaintext (DESIGN.md §2.4). It is
// immutable after NewSealer or TicketSealer and safe for concurrent use.
type Sealer struct {
	epk   [epkSize]byte
	aead  cipher.AEAD // request direction
	reply cipher.AEAD // reply direction: what OpenReply opens with
	// macKey tags what rides a ticket's exchange (MACKey); ticketed says
	// there is one. An X25519 exchange has none: anybody can start one, so
	// a MAC under its key would say nothing about who sent it.
	macKey   boxKeyBytes
	ticketed bool
}

// NewSealer draws an ephemeral key and runs the exchange with recipient's
// box key: the only asymmetric work any number of Seal calls will cost. For a
// recipient sealed to before, that work may already have run on an idle
// core (DESIGN.md §2.7); either way the key is fresh and serves this sealer
// alone.
func NewSealer(recipient PublicIdentity) (*Sealer, error) {
	rpub, err := ecdh.X25519().NewPublicKey(recipient.BoxPub)
	if err != nil {
		return nil, fmt.Errorf("pki: recipient box key: %w", err)
	}
	x, ok := ahead.take(rpub, recipient.BoxPub)
	if !ok {
		if x, err = runExchange(rand.Reader, rpub, recipient.BoxPub); err != nil {
			return nil, err
		}
	}
	s := &Sealer{epk: x.epk}
	if err := s.keyBoth(x.key); err != nil {
		return nil, err
	}
	return s, nil
}

// exchange is the sender's half of one X25519 exchange: its ephemeral public
// key and the request-direction key it shares with the recipient.
type exchange struct {
	epk [epkSize]byte
	key boxKeyBytes
}

// runExchange draws an ephemeral key from r and runs the exchange with the
// recipient whose box key is rpub (rpk in bytes).
func runExchange(r io.Reader, rpub *ecdh.PublicKey, rpk []byte) (x exchange, err error) {
	eph, err := ecdh.X25519().GenerateKey(r)
	if err != nil {
		return x, err
	}
	shared, err := eph.ECDH(rpub)
	if err != nil {
		return x, err
	}
	copy(x.epk[:], eph.PublicKey().Bytes())
	x.key = boxKey(shared, x.epk[:], rpk)
	return x, nil
}

const (
	// aheadWarm is how many NewSealer calls a recipient takes before
	// exchanges are run ahead for it: a bTelco key minted for one session
	// is sealed to once and never warms.
	aheadWarm = 2
	// aheadDepth bounds a recipient's exchanges ready and owed.
	aheadDepth = 8
	// aheadRecipients is how many recipients are tracked; the one sealed to
	// least recently is dropped, and its exchanges with it.
	aheadRecipients = 8
)

// systemRand is crypto/rand.Reader as the process started with it: the only
// source the worker draws from. While rand.Reader is anything else, NewSealer
// draws inline from it, so a swapped reader decides every ephemeral key.
var systemRand = rand.Reader

// ahead runs the exchanges of warm recipients on an idle core (DESIGN.md
// §2.7). Every exchange is handed out once, to a sealer for the recipient it
// was run for; a caller never waits for one — a miss runs inline. One worker
// goroutine runs while exchanges are owed and exits when none are.
var ahead exchangesAhead

type exchangesAhead struct {
	mu      sync.Mutex
	lines   [aheadRecipients]aheadLine
	clock   uint64 // stamps aheadLine.used
	running bool   // the worker goroutine is alive
	ran     int    // exchanges the worker ran
	taken   int    // exchanges handed out
}

// aheadLine is one tracked recipient. ready[:n] are run and not handed out,
// and owed are queued for or running on the worker: n + owed ≤ aheadDepth.
type aheadLine struct {
	pub   *ecdh.PublicKey // nil: the slot is free
	rpk   [epkSize]byte
	gen   uint64 // moves when the slot changes hands; a stale run is dropped
	used  uint64
	seals int
	ready [aheadDepth]exchange
	n     int
	owed  int
}

// take hands out an exchange run ahead for recipient rpub (rpk in bytes), if
// one is ready, and books the work that keeps its line full: one run for the
// exchange handed out, two for a miss on a warm recipient, none on a host
// with one core or while rand.Reader is not systemRand.
func (a *exchangesAhead) take(rpub *ecdh.PublicKey, rpk []byte) (x exchange, ok bool) {
	if rand.Reader != systemRand {
		return x, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.line(rpub, rpk)
	if l.seals++; l.seals < aheadWarm {
		return x, false
	}
	want := 2
	if l.n > 0 {
		l.n--
		x, ok, want = l.ready[l.n], true, 1
		a.taken++
	}
	if runtime.GOMAXPROCS(0) == 1 {
		return x, ok
	}
	l.owed += max(0, min(want, aheadDepth-l.n-l.owed))
	if l.owed > 0 && !a.running {
		a.running = true
		go runAhead()
	}
	return x, ok
}

// line returns rpk's line, taking over a free or the least recently used
// slot for a recipient not tracked.
func (a *exchangesAhead) line(rpub *ecdh.PublicKey, rpk []byte) *aheadLine {
	a.clock++
	var l *aheadLine
	for i := range a.lines {
		c := &a.lines[i]
		if c.pub != nil && string(c.rpk[:]) == string(rpk) {
			l = c
			break
		}
		if l == nil || c.used < l.used {
			l = c
		}
	}
	if l.pub == nil || string(l.rpk[:]) != string(rpk) {
		*l = aheadLine{pub: rpub, rpk: [epkSize]byte(rpk), gen: l.gen + 1}
	}
	l.used = a.clock
	return l
}

// runAhead is the worker: it runs owed exchanges until none are, or until
// GOMAXPROCS drops to 1 and no core is idle, then exits; what is still owed
// waits for the next take on more cores. (testing.AllocsPerRun drops it to 1,
// so a measured window does not count the worker's allocations.) A go
// statement with no arguments allocates no closure, so it is a func on ahead
// and not a method.
func runAhead() {
	a := &ahead
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		var l *aheadLine
		for i := range a.lines {
			if a.lines[i].owed > 0 {
				l = &a.lines[i]
				break
			}
		}
		if l == nil || runtime.GOMAXPROCS(0) == 1 {
			a.running = false
			return
		}
		gen, pub, rpk := l.gen, l.pub, l.rpk
		a.mu.Unlock()
		x, err := runExchange(systemRand, pub, rpk[:])
		a.mu.Lock()
		a.ran++
		if l.gen != gen {
			continue // the recipient went cold; its exchange goes with it
		}
		l.owed--
		if err == nil {
			l.ready[l.n] = x
			l.n++
		}
	}
}

// keyBoth builds the AEADs of both directions of the exchange keyed by key.
func (s *Sealer) keyBoth(key boxKeyBytes) (err error) {
	if s.aead, err = newBoxAEAD(key[:]); err != nil {
		return err
	}
	rk := replyKey(key)
	s.reply, err = newBoxAEAD(rk[:])
	return err
}

// Seal encrypts what fields lists on the sealer's exchange under a fresh
// random nonce. The message is encoded in the box and encrypted where it
// lies: the box is the one allocation.
func (s *Sealer) Seal(fields func(codec.Coder) codec.Coder) ([]byte, error) {
	return sealBox(s.aead, s.epk[:], fields)
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
	return openWith(s.reply, box)
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
	tag := mac32(&k.derived.ticketSecret, ticketBindLabel, t.Locator[:ticketRandSize], id)
	copy(t.Locator[ticketRandSize:], tag[:])
	t.Key = mac32(&k.derived.ticketSecret, ticketKeyLabel, t.Locator[:], "")
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
	tag := mac32(&k.derived.ticketSecret, ticketBindLabel, box[:ticketRandSize], id)
	return subtle.ConstantTimeCompare(tag[:epkSize-ticketRandSize], box[ticketRandSize:epkSize]) == 1
}

// TicketSealer returns the sealer of t's exchange: no keygen, no ECDH.
func TicketSealer(t Ticket) (*Sealer, error) {
	s := &Sealer{epk: t.Locator, macKey: ticketMACKey(t.Key), ticketed: true}
	if err := s.keyBoth(t.Key); err != nil {
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
	t.Key = ticketMACKey(mac32(&k.derived.ticketSecret, ticketKeyLabel, t.Locator[:], ""))
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
	return Ticket{Locator: certDigest, Key: mac32(&k.derived.ticketSecret, passLabel, certDigest[:], "")}
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
	return t.TagDigest(label, &sum)
}

// TagDigest is Tag for a caller that holds msg's SHA-256 and not msg: a
// decoder that hashed the span as it read it.
func (t *Ticket) TagDigest(label string, sum *[sha256.Size]byte) [sha256.Size]byte {
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
	return s.Seal(func(c codec.Coder) codec.Coder { c.Raw(msg); return c })
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

// SealReply encrypts what fields lists to whoever sealed requestBox to k,
// on that box's exchange: the reply echoes its prefix and is keyed for the
// reverse direction, so only the holder of the request's Sealer opens it.
// The caller has opened requestBox; an exchange the memo no longer holds is
// recomputed. Like Sealer.Seal, the box is the one buffer.
func (k *KeyPair) SealReply(requestBox []byte, fields func(codec.Coder) codec.Coder) ([]byte, error) {
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
	return sealBox(aead, requestBox[:epkSize], fields)
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
	if aead, known := k.memo.opener(prefix, &key); known {
		pt, err = openWith(aead, box)
		return pt, key, err
	}
	key = mac32(&k.derived.ticketSecret, ticketKeyLabel, prefix, "")
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

// boxKey is HMAC-SHA256(shared, label ‖ epk ‖ rpk), on the stack.
func boxKey(shared, epk, rpk []byte) boxKeyBytes {
	m := NewMAC(shared)
	return m.Sum("cellbricks-seal-v1", epk, rpk)
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

// sealBox encodes what fields lists behind epk and a fresh nonce, in a box
// of exactly its size, and encrypts it in place.
func sealBox(aead cipher.AEAD, epk []byte, fields func(codec.Coder) codec.Coder) ([]byte, error) {
	const head = epkSize + boxNonceSize
	out := make([]byte, head, boxOverhead+codec.Size(fields))
	copy(out, epk)
	nonce := out[epkSize:head]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	out = codec.Append(out, fields)
	return aead.Seal(out[:head], nonce, out[head:], nil), nil
}

func openBox(key boxKeyBytes, box []byte) ([]byte, error) {
	aead, err := newBoxAEAD(key[:])
	if err != nil {
		return nil, err
	}
	return openWith(aead, box)
}

// openWith opens box, at least boxOverhead long, under aead: the plaintext
// is its one allocation.
func openWith(aead cipher.AEAD, box []byte) ([]byte, error) {
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
// in a world are UEs, which never open a request-direction box. The
// exception is an exchange that keeps sending boxes — a bTelco's resident
// one, which carries every report it files: from its keepAfterHits-th hit
// its AEAD is kept too, for the keptOpeners such exchanges used most
// recently. A UE's exchange carries its authVec and its session's reports,
// and one that is kept is soon pushed out by the bTelcos'.
type boxMemo struct {
	mu   sync.Mutex
	keys map[[epkSize]byte]memoEntry
	ring [][epkSize]byte // insertion order; ring[next] is the oldest once full
	next int

	kept  [keptOpeners]keptOpener
	clock uint64 // stamps keptOpener.used
}

type memoEntry struct {
	key  boxKeyBytes
	hits uint32
}

type keptOpener struct {
	epk  [epkSize]byte
	aead cipher.AEAD // nil: the slot is free
	used uint64
}

func (m *boxMemo) get(epk []byte) (boxKeyBytes, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.keys[[epkSize]byte(epk)]
	return e.key, ok
}

// opener returns the AEAD that opens boxes of the exchange epk names, with
// its key in *key, if the memo knows that exchange: a kept one, or one
// built for this box and kept when the exchange has earned it.
func (m *boxMemo) opener(epk []byte, key *boxKeyBytes) (cipher.AEAD, bool) {
	x := [epkSize]byte(epk)
	m.mu.Lock()
	e, ok := m.keys[x]
	if !ok {
		m.mu.Unlock()
		return nil, false
	}
	*key = e.key
	m.clock++
	for i := range m.kept {
		if k := &m.kept[i]; k.aead != nil && k.epk == x {
			k.used = m.clock
			m.mu.Unlock()
			return k.aead, true
		}
	}
	e.hits++
	m.keys[x] = e
	if e.hits < keepAfterHits {
		m.mu.Unlock()
		return mustBoxAEAD(e.key), true
	}
	defer m.mu.Unlock()
	slot := &m.kept[0]
	for i := range m.kept {
		if k := &m.kept[i]; k.aead == nil || k.used < slot.used {
			slot = k
		}
	}
	*slot = keptOpener{epk: x, aead: mustBoxAEAD(e.key), used: m.clock}
	return slot.aead, true
}

// mustBoxAEAD is newBoxAEAD for a key of the right length, which never fails.
func mustBoxAEAD(key boxKeyBytes) cipher.AEAD {
	aead, err := newBoxAEAD(key[:])
	if err != nil {
		panic("pki: box key: " + err.Error())
	}
	return aead
}

func (m *boxMemo) put(epk []byte, key boxKeyBytes) {
	e := [epkSize]byte(epk)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.keys[e]; dup {
		return
	}
	if m.keys == nil {
		m.keys = make(map[[epkSize]byte]memoEntry)
	}
	if len(m.ring) < boxMemoSize {
		m.ring = append(m.ring, e)
	} else {
		old := m.ring[m.next]
		delete(m.keys, old)
		for i := range m.kept {
			if m.kept[i].epk == old {
				m.kept[i] = keptOpener{}
			}
		}
		m.ring[m.next] = e
		m.next = (m.next + 1) % boxMemoSize
	}
	m.keys[e] = memoEntry{key: key}
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
