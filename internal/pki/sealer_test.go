package pki

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func mustSealer(t testing.TB, to *KeyPair) *Sealer {
	t.Helper()
	s, err := NewSealer(to.Public())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSeal(t testing.TB, s *Sealer, msg []byte) []byte {
	t.Helper()
	box, err := s.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return box
}

func (k *KeyPair) memoLen() int {
	k.memo.mu.Lock()
	defer k.memo.mu.Unlock()
	if len(k.memo.keys) != len(k.memo.ring) {
		panic(fmt.Sprintf("memo map holds %d keys, ring %d", len(k.memo.keys), len(k.memo.ring)))
	}
	return len(k.memo.keys)
}

// Any number of boxes ride one exchange: same epk, fresh nonce and
// ciphertext each time, and every one opens — first by ECDH, then warm.
func TestSealerManyBoxesOneExchange(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		msg  []byte
	}{
		{"empty", 3, nil},
		{"authVec-sized", 16, bytes.Repeat([]byte{0xA5}, 70)},
		{"report-sized", 64, bytes.Repeat([]byte("r"), 130)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := mustPair(t, 20)
			s := mustSealer(t, k)
			nonces, cts := map[string]bool{}, map[string]bool{}
			var first []byte
			for i := 0; i < tc.n; i++ {
				box := mustSeal(t, s, tc.msg)
				if len(box) != boxOverhead+len(tc.msg) {
					t.Fatalf("box is %d bytes, want %d", len(box), boxOverhead+len(tc.msg))
				}
				if first == nil {
					first = box
				} else if !bytes.Equal(box[:epkSize], first[:epkSize]) {
					t.Fatal("second box on one sealer carries a different epk")
				}
				nonces[string(box[epkSize:epkSize+boxNonceSize])] = true
				cts[string(box[epkSize+boxNonceSize:])] = true
				got, err := k.Open(box)
				if err != nil || !bytes.Equal(got, tc.msg) {
					t.Fatalf("box %d: %q, %v", i, got, err)
				}
			}
			if len(nonces) != tc.n || len(cts) != tc.n {
				t.Fatalf("%d boxes carry %d nonces and %d ciphertexts", tc.n, len(nonces), len(cts))
			}
			if k.memoLen() != 1 {
				t.Fatalf("one exchange left %d memo entries", k.memoLen())
			}
		})
	}
}

// Rule "memo": bounded, authenticated-only, and a miss gives what a hit
// gives.
func TestOpenMemoBoundedAuthenticatedMissEqualsHit(t *testing.T) {
	k := mustPair(t, 21)
	msg := []byte("billing report")
	s0 := mustSealer(t, k)
	box0 := mustSeal(t, s0, msg)
	cold, err := k.Open(box0)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := k.memo.get(box0[:epkSize]); !hit {
		t.Fatal("authenticated exchange was not remembered")
	}
	warm, err := k.Open(box0)
	if err != nil || !bytes.Equal(warm, cold) {
		t.Fatalf("hit differs from miss: %q vs %q (%v)", warm, cold, err)
	}

	// Junk — a box that never authenticates — leaves the memo alone, be
	// its epk fresh or a live one.
	for _, junk := range [][]byte{
		bytes.Repeat([]byte{7}, boxOverhead+10),
		append(append([]byte(nil), box0[:epkSize]...), make([]byte, boxNonceSize+gcmTagSize+4)...),
	} {
		if _, err := k.Open(junk); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("junk: err=%v, want ErrDecrypt", err)
		}
	}
	if k.memoLen() != 1 {
		t.Fatalf("junk entered the memo: %d entries", k.memoLen())
	}

	// 4× the bound of distinct senders: never over the bound, oldest out
	// first, and the evicted first exchange still opens.
	for i := 0; i < 4*boxMemoSize; i++ {
		if _, err := k.Open(mustSeal(t, mustSealer(t, k), msg)); err != nil {
			t.Fatal(err)
		}
		if n := k.memoLen(); n > boxMemoSize {
			t.Fatalf("memo holds %d entries after %d senders, bound %d", n, i+2, boxMemoSize)
		}
	}
	if k.memoLen() != boxMemoSize {
		t.Fatalf("memo holds %d entries, want it full at %d", k.memoLen(), boxMemoSize)
	}
	if _, hit := k.memo.get(box0[:epkSize]); hit {
		t.Fatal("first exchange survived 4× bound later ones")
	}
	again, err := k.Open(mustSeal(t, s0, msg))
	if err != nil || !bytes.Equal(again, cold) {
		t.Fatalf("evicted exchange: %q, %v", again, err)
	}
	reply, err := k.SealReply(box0, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s0.OpenReply(reply); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("reply on an evicted exchange: %q, %v", got, err)
	}
}

// Rule "reply channel": a reply opens only on its own exchange and in its
// own direction, and has the request's layout.
func TestReplyOpensOnlyOnOwnExchangeAndDirection(t *testing.T) {
	k := mustPair(t, 22)
	s, other := mustSealer(t, k), mustSealer(t, k)
	req := mustSeal(t, s, []byte("authVec"))
	if _, err := k.Open(req); err != nil {
		t.Fatal(err)
	}
	msg := []byte("authRespU")
	reply, err := k.SealReply(req, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != boxOverhead+len(msg) || !bytes.Equal(reply[:epkSize], req[:epkSize]) {
		t.Fatal("reply does not echo the request's epk in the box layout")
	}
	// Repeatable on one request: nothing is consumed on either side.
	for i := 0; i < 3; i++ {
		r, err := k.SealReply(req, msg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.OpenReply(r); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("pass %d: %q, %v", i, got, err)
		}
	}

	tamperedEPK := append([]byte(nil), reply...)
	tamperedEPK[3] ^= 0x10
	tamperedReq := append([]byte(nil), req...)
	tamperedReq[3] ^= 0x10
	for _, tc := range []struct {
		name string
		open func() ([]byte, error)
		want error
	}{
		{"reply with the request-direction key", func() ([]byte, error) { return k.Open(reply) }, ErrDecrypt},
		{"request with the reply-direction key", func() ([]byte, error) { return s.OpenReply(req) }, ErrDecrypt},
		{"reply presented to a different sealer", func() ([]byte, error) { return other.OpenReply(reply) }, ErrDecrypt},
		{"reply with a tampered epk", func() ([]byte, error) { return s.OpenReply(tamperedEPK) }, ErrDecrypt},
		{"request with a tampered epk", func() ([]byte, error) { return k.Open(tamperedReq) }, ErrDecrypt},
		{"low-order epk", func() ([]byte, error) { return k.Open(make([]byte, boxOverhead)) }, ErrDecrypt},
		{"truncated reply", func() ([]byte, error) { return s.OpenReply(reply[:boxOverhead-1]) }, ErrShortInput},
		{"truncated request", func() ([]byte, error) { return k.Open(req[:boxOverhead-1]) }, ErrShortInput},
		{"reply to a truncated request", func() ([]byte, error) { return k.SealReply(req[:epkSize], msg) }, ErrShortInput},
	} {
		if pt, err := tc.open(); !errors.Is(err, tc.want) || pt != nil {
			t.Errorf("%s: got %q, %v; want %v", tc.name, pt, err, tc.want)
		}
	}
}

// Rule "who may keep a resident sealer", the pki half: the set is bounded
// and an exchange is replaced after sealsPerResident hand-outs.
func TestSealersBoundedAndReplaced(t *testing.T) {
	var c Sealers
	k := mustPair(t, 23)
	first, err := c.To(k.Public())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < sealsPerResident; i++ {
		if s, _ := c.To(k.Public()); s != first {
			t.Fatalf("hand-out %d ran a new exchange", i)
		}
	}
	next, err := c.To(k.Public())
	if err != nil || next == first || next.epk == first.epk {
		t.Fatalf("hand-out %d kept the old exchange (%v)", sealsPerResident, err)
	}
	if got, err := k.Open(mustSeal(t, next, []byte("x"))); err != nil || string(got) != "x" {
		t.Fatalf("replacement sealer: %q, %v", got, err)
	}
	for i := 0; i < maxResidentSealers+8; i++ {
		seed := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xEE, 1}, 8)
		r, err := KeyPairFromSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.To(r.Public()); err != nil {
			t.Fatal(err)
		}
		if len(c.to) > maxResidentSealers {
			t.Fatalf("%d resident sealers, bound %d", len(c.to), maxResidentSealers)
		}
	}
	if _, err := c.To(PublicIdentity{BoxPub: []byte("short")}); err == nil {
		t.Fatal("resident sealer for a malformed box key")
	}
}

// Seal, Open, SealReply and Sealers.To from several goroutines at once
// (meaningful under -race).
func TestSealerConcurrentUse(t *testing.T) {
	k := mustPair(t, 24)
	var resident Sealers
	shared := mustSealer(t, k)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own, err := NewSealer(k.Public())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 40; i++ {
				msg := []byte(fmt.Sprintf("g%d-%d", g, i))
				res, err := resident.To(k.Public())
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range []*Sealer{shared, own, res} {
					box, err := s.Seal(msg)
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := k.Open(box); err != nil || !bytes.Equal(got, msg) {
						t.Errorf("open: %q, %v", got, err)
						return
					}
					reply, err := k.SealReply(box, msg)
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := s.OpenReply(reply); err != nil || !bytes.Equal(got, msg) {
						t.Errorf("reply: %q, %v", got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := k.memoLen(); n != 6 {
		t.Fatalf("6 exchanges left %d memo entries", n)
	}
}

func mustTicket(t testing.TB, issuer *KeyPair, id string) (Ticket, *Sealer) {
	t.Helper()
	tk, err := issuer.MintTicket(id)
	if err != nil {
		t.Fatal(err)
	}
	s, err := TicketSealer(tk)
	if err != nil {
		t.Fatal(err)
	}
	return tk, s
}

// Rule "a ticket is an exchange nobody ran" (DESIGN.md §2.8): the issuer
// keeps nothing, so a KeyPair rebuilt from the seed honours it with an empty
// memo, in both directions; it is bound to one identifier; and without its
// key a locator is 32 bytes of noise.
func TestTicketExchangeStatelessBoundAndKeyed(t *testing.T) {
	issuer := mustPair(t, 23)
	tk, s := mustTicket(t, issuer, "alice")
	msg := []byte("authVec")
	box := mustSeal(t, s, msg)
	if len(box) != boxOverhead+len(msg) || !bytes.Equal(box[:epkSize], tk.Locator[:]) {
		t.Fatal("a ticket box is not locator ‖ nonce ‖ ct")
	}

	for _, k := range []*KeyPair{issuer, mustPair(t, 23)} { // the minter, then a restart
		if k.memoLen() != 0 {
			t.Fatal("memo not empty before the first open")
		}
		reply, err := k.SealReply(box, []byte("authRespU")) // before any Open: derives
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.OpenReply(reply); err != nil || string(got) != "authRespU" {
			t.Fatalf("reply: %q, %v", got, err)
		}
		for pass := 0; pass < 2; pass++ { // the reply's derivation remembered it; then warm
			if got, err := k.Open(box); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("pass %d: %q, %v", pass, got, err)
			}
		}
		if k.memoLen() != 1 {
			t.Fatalf("one ticket left %d memo entries", k.memoLen())
		}
		if !k.TicketBound(box, "alice") || k.TicketBound(box, "bob") || k.TicketBound(box[:epkSize-1], "alice") {
			t.Fatal("ticket binding: want alice only")
		}
	}

	// An X25519 exchange still opens beside it, and is bound to nobody.
	x := mustSeal(t, mustSealer(t, issuer), msg)
	if _, err := issuer.Open(x); err != nil || issuer.TicketBound(x, "alice") {
		t.Fatalf("X25519 box beside a ticket: err=%v", err)
	}

	_, thief := mustTicket(t, mustPair(t, 24), "alice") // right shape, someone else's secret
	stolen := append(append([]byte(nil), tk.Locator[:]...), mustSeal(t, thief, msg)[epkSize:]...)
	other := mustPair(t, 25)
	before := other.memoLen()
	for _, tc := range []struct {
		name string
		open func() ([]byte, error)
	}{
		{"locator replayed without its key", func() ([]byte, error) { return mustPair(t, 23).Open(stolen) }},
		{"reply to a locator replayed without its key", func() ([]byte, error) { return mustPair(t, 23).SealReply(stolen, msg) }},
		{"ticket presented to a different seed", func() ([]byte, error) { return other.Open(box) }},
		{"reply from a different seed", func() ([]byte, error) { return other.SealReply(box, msg) }},
		{"request opened as a reply", func() ([]byte, error) { return s.OpenReply(box) }},
	} {
		if pt, err := tc.open(); !errors.Is(err, ErrDecrypt) || pt != nil {
			t.Errorf("%s: got %q, %v; want ErrDecrypt", tc.name, pt, err)
		}
	}
	if other.TicketBound(box, "alice") || other.memoLen() != before {
		t.Fatal("a foreign ticket bound or entered the memo")
	}
}

// Rule "a pass is the ticket of a relationship" (DESIGN.md §2.9): derived
// from the issuer's seed and a certificate digest alone, so a restart
// derives it again; one per digest and per seed; its MAC is an HMAC over the
// message's hash, separated by purpose; and what the issuer seals on it, only
// the pass's holder opens — as a reply, on that digest, and nowhere else.
func TestPassStatelessPerCertificateTaggedAndAnswered(t *testing.T) {
	issuer := mustPair(t, 26)
	a, b := sha256.Sum256([]byte("certificate a")), sha256.Sum256([]byte("certificate b"))
	pass := issuer.Pass(a)
	if pass.Locator != a || pass != mustPair(t, 26).Pass(a) {
		t.Fatal("a pass is not a pure function of seed and digest")
	}
	if pass.Key == issuer.Pass(b).Key || pass.Key == mustPair(t, 27).Pass(a).Key {
		t.Fatal("two certificates, or two issuers, share a pass")
	}
	if tk, _ := mustTicket(t, issuer, "alice"); pass.Key == tk.Key {
		t.Fatal("a pass equals a UE ticket's key")
	}

	msg := []byte("authReqT")
	sum := sha256.Sum256(msg)
	m := hmac.New(sha256.New, pass.Key[:])
	m.Write([]byte("purpose-1"))
	m.Write(sum[:])
	if tag := pass.Tag("purpose-1", msg); !bytes.Equal(tag[:], m.Sum(nil)) {
		t.Fatal("Tag is not HMAC(key, label ‖ SHA-256(msg))")
	}
	if pass.Tag("purpose-1", msg) == pass.Tag("purpose-2", msg) || pass.Tag("purpose-1", msg) == pass.Tag("purpose-1", []byte("authReqT.")) {
		t.Fatal("tags collide across purposes or messages")
	}
	if n := testing.AllocsPerRun(100, func() { pass.Tag("purpose-1", msg) }); n != 0 {
		t.Fatalf("Tag allocates %v objects per call", n)
	}

	toHolder, err := TicketSealer(pass.Reply())
	if err != nil {
		t.Fatal(err)
	}
	box := mustSeal(t, toHolder, []byte("authRespT"))
	if !bytes.Equal(box[:epkSize], a[:]) {
		t.Fatal("the answer's prefix is not the certificate digest")
	}
	holder, err := TicketSealer(pass)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := holder.OpenReply(box); err != nil || string(got) != "authRespT" {
		t.Fatalf("holder: %q, %v", got, err)
	}
	otherCert, _ := TicketSealer(issuer.Pass(b))
	otherSeed, _ := TicketSealer(mustPair(t, 27).Pass(a))
	for name, open := range map[string]func() ([]byte, error){
		"the holder of another certificate's pass": func() ([]byte, error) { return otherCert.OpenReply(box) },
		"the same certificate at another issuer":   func() ([]byte, error) { return otherSeed.OpenReply(box) },
		"the issuer's own Open":                    func() ([]byte, error) { return issuer.Open(box) },
		"a request-direction box read as a reply":  func() ([]byte, error) { return holder.OpenReply(mustSeal(t, holder, msg)) },
	} {
		if pt, err := open(); !errors.Is(err, ErrDecrypt) || pt != nil {
			t.Errorf("%s: got %q, %v; want ErrDecrypt", name, pt, err)
		}
	}
}

// mac32 is HMAC-SHA256, on the stack for the sizes the ticket path uses and
// still right when an identifier outgrows the buffer.
func TestMac32IsHMACAndStackOnly(t *testing.T) {
	key := boxKeyBytes(bytes.Repeat([]byte{9}, 32))
	a := bytes.Repeat([]byte{7}, 32)
	for _, id := range []string{"", "0123456789abcdef0123456789abcdef", strings.Repeat("long-id-", 40)} {
		m := hmac.New(sha256.New, key[:])
		m.Write([]byte(ticketBindLabel))
		m.Write(a)
		m.Write([]byte(id))
		if got := mac32(&key, ticketBindLabel, a, id); !bytes.Equal(got[:], m.Sum(nil)) {
			t.Fatalf("mac32 differs from crypto/hmac at a %d-byte id", len(id))
		}
	}
	id := "0123456789abcdef0123456789abcdef"
	if n := testing.AllocsPerRun(100, func() { key = mac32(&key, ticketBindLabel, a, id) }); n != 0 {
		t.Fatalf("mac32 allocates %v objects per call", n)
	}
}

// fuzzKey is the recipient of the checked-in FuzzOpen corpus.
func fuzzKey(t testing.TB) *KeyPair {
	k, err := KeyPairFromSeed(bytes.Repeat([]byte{0xF0}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// FuzzOpen feeds attacker bytes to the one place they meet the box key.
// The seed corpus under testdata/fuzz/FuzzOpen (genuine boxes sealed to
// fuzzKey on X25519 exchanges and on a ticket it minted, reply-direction
// boxes, a ticket locator without its key, truncations, junk) runs on every
// plain `go test`.
func FuzzOpen(f *testing.F) {
	k := fuzzKey(f)
	live := mustSealer(f, k)
	liveBox := mustSeal(f, live, []byte("live"))
	if _, err := k.Open(liveBox); err != nil {
		f.Fatal(err)
	}
	f.Add(liveBox)
	f.Add(liveBox[:boxOverhead-1])
	f.Add(make([]byte, boxOverhead))
	f.Fuzz(func(t *testing.T, box []byte) {
		before := k.memoLen()
		pt, err := k.Open(box)
		switch {
		case err == nil:
			if len(pt) != len(box)-boxOverhead {
				t.Fatalf("%d-byte box opened to %d bytes", len(box), len(pt))
			}
		case errors.Is(err, ErrShortInput):
			if len(box) >= boxOverhead {
				t.Fatalf("%d-byte box called short", len(box))
			}
		case !errors.Is(err, ErrDecrypt):
			t.Fatalf("unexpected error %v", err)
		}
		after := k.memoLen()
		if after > boxMemoSize || (err != nil && after != before) {
			t.Fatalf("memo %d → %d entries on err=%v", before, after, err)
		}
		if _, hit := k.memo.get(liveBox[:epkSize]); !hit && before < boxMemoSize {
			t.Fatal("input evicted a live exchange from a memo that was not full")
		}
		// Whatever came in, replying to it neither panics nor opens under
		// an unrelated sealer.
		if reply, err := k.SealReply(box, []byte("r")); err == nil {
			if _, err := live.OpenReply(reply); err == nil && !bytes.Equal(box[:epkSize], liveBox[:epkSize]) {
				t.Fatal("reply to a foreign exchange opened on the live sealer")
			}
		}
	})
}

var benchSink []byte

func BenchmarkSealerSeal(b *testing.B) {
	k := mustPair(b, 42)
	s := mustSealer(b, k)
	msg := make([]byte, 70)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = s.Seal(msg)
	}
}

func BenchmarkOpenWarm(b *testing.B) {
	k := mustPair(b, 42)
	box := mustSeal(b, mustSealer(b, k), make([]byte, 70))
	if _, err := k.Open(box); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = k.Open(box)
	}
}

// BenchmarkOpenColdTicket opens a ticket box the memo has not seen — every
// ticketed attach request: one PRF where BenchmarkOpenCold pays an ECDH.
func BenchmarkOpenColdTicket(b *testing.B) {
	k := mustPair(b, 42)
	_, s := mustTicket(b, k, "0123456789abcdef0123456789abcdef")
	box := mustSeal(b, s, make([]byte, 70))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.memo = boxMemo{}
		benchSink, _ = k.Open(box)
	}
}

// BenchmarkOpenCold opens a box on an exchange the memo has not seen: the
// price of every Open before PR 18, of first contact since.
func BenchmarkOpenCold(b *testing.B) {
	k := mustPair(b, 42)
	box := mustSeal(b, mustSealer(b, k), make([]byte, 70))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.memo = boxMemo{}
		benchSink, _ = k.Open(box)
	}
}
