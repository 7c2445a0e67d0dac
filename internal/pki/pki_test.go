package pki

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustPair(t testing.TB, seed byte) *KeyPair {
	t.Helper()
	s := bytes.Repeat([]byte{seed}, 32)
	k, err := KeyPairFromSeed(s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSignVerify(t *testing.T) {
	k := mustPair(t, 1)
	msg := []byte("attach request")
	sig := k.Sign(msg)
	if err := k.Public().Verify(msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := k.Public().Verify([]byte("tampered"), sig); err == nil {
		t.Fatal("verify accepted tampered message")
	}
	other := mustPair(t, 2)
	if err := other.Public().Verify(msg, sig); err == nil {
		t.Fatal("verify accepted wrong key")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := mustPair(t, 3)
	msg := []byte("authVec: idU=abc idB=broker idT=telco nonce=123")
	box, err := Seal(k.Public(), msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Open(box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("roundtrip mismatch: %q", got)
	}
}

func TestSealWrongRecipient(t *testing.T) {
	a, b := mustPair(t, 4), mustPair(t, 5)
	box, err := Seal(a.Public(), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(box); err == nil {
		t.Fatal("wrong recipient opened box")
	}
}

func TestSealTamperDetected(t *testing.T) {
	k := mustPair(t, 6)
	box, err := Seal(k.Public(), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	box[len(box)-1] ^= 1
	if _, err := k.Open(box); err == nil {
		t.Fatal("tampered box opened")
	}
}

func TestSealNondeterministic(t *testing.T) {
	k := mustPair(t, 7)
	b1, _ := Seal(k.Public(), []byte("x"))
	b2, _ := Seal(k.Public(), []byte("x"))
	if bytes.Equal(b1, b2) {
		t.Fatal("two seals of the same message are identical (no ephemeral randomness)")
	}
}

func TestOpenShortInput(t *testing.T) {
	k := mustPair(t, 8)
	if _, err := k.Open([]byte("short")); err == nil {
		t.Fatal("short box accepted")
	}
}

func TestIdentityBytesRoundTrip(t *testing.T) {
	k := mustPair(t, 9)
	b := k.Public().Bytes()
	got, err := ParsePublicIdentity(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.SigPub, k.Public().SigPub) || !bytes.Equal(got.BoxPub, k.Public().BoxPub) {
		t.Fatal("identity roundtrip mismatch")
	}
	if _, err := ParsePublicIdentity(b[:len(b)-1]); err == nil {
		t.Fatal("truncated identity accepted")
	}
	if _, err := ParsePublicIdentity(append(b, 0)); err == nil {
		t.Fatal("identity with trailing bytes accepted")
	}
}

func TestDigestStableAndDistinct(t *testing.T) {
	a, b := mustPair(t, 10), mustPair(t, 11)
	if a.Public().Digest() != a.Public().Digest() {
		t.Fatal("digest not stable")
	}
	if a.Public().Digest() == b.Public().Digest() {
		t.Fatal("distinct keys share a digest")
	}
	if len(a.Public().Digest()) != 32 {
		t.Fatalf("digest length %d, want 32 hex chars", len(a.Public().Digest()))
	}
}

func TestCertificateIssueVerify(t *testing.T) {
	ca, err := NewCAFromSeed("root", bytes.Repeat([]byte{42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	telco := mustPair(t, 12)
	now := time.Unix(1_700_000_000, 0)
	cert := ca.Issue("btelco-1.example", "btelco", telco.Public(), now.Add(-time.Hour), now.Add(time.Hour))
	if err := VerifyCert(ca.Public(), cert, now); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Expired.
	if err := VerifyCert(ca.Public(), cert, now.Add(2*time.Hour)); err != ErrExpired {
		t.Fatalf("expired cert: err=%v, want ErrExpired", err)
	}
	// Not yet valid.
	if err := VerifyCert(ca.Public(), cert, now.Add(-2*time.Hour)); err != ErrExpired {
		t.Fatalf("premature cert: err=%v, want ErrExpired", err)
	}
	// Tampered subject.
	bad := *cert
	bad.Subject = "evil"
	if err := VerifyCert(ca.Public(), &bad, now); err != ErrBadCertificate {
		t.Fatalf("tampered cert: err=%v, want ErrBadCertificate", err)
	}
	// Wrong anchor.
	ca2, _ := NewCAFromSeed("other", bytes.Repeat([]byte{43}, 32))
	if err := VerifyCert(ca2.Public(), cert, now); err != ErrBadCertificate {
		t.Fatalf("wrong anchor: err=%v, want ErrBadCertificate", err)
	}
	if err := VerifyCert(ca.Public(), nil, now); err != ErrBadCertificate {
		t.Fatalf("nil cert: err=%v", err)
	}
}

func TestDeterministicSeedStability(t *testing.T) {
	a := mustPair(t, 20)
	b := mustPair(t, 20)
	if !bytes.Equal(a.Public().SigPub, b.Public().SigPub) {
		t.Fatal("same seed produced different signing keys")
	}
	if !bytes.Equal(a.Public().BoxPub, b.Public().BoxPub) {
		t.Fatal("same seed produced different box keys")
	}
}

// A KeyPair derives its X25519 half on first use, not when it is built, and
// derives the key it always did: these are the bytes the eager derivation,
// which clamped the scalar before X25519 clamped it again, gave three seeds.
func TestBoxKeyKnownAnswer(t *testing.T) {
	for seed, want := range map[byte]string{
		1:  "09787dee04cb618ebb0890385fd399e40c9b0efa77031b8342282b266046b26f",
		3:  "723bf129451fd92484651cdf26237bfdb1bfc1ecb8b380847b855e96e4d0f15f",
		77: "33bcfc9b2231f6689df7402e2b97bd5fae2dd6de57bbb92c06d546eff5b1ed2f",
	} {
		k := mustPair(t, seed)
		if k.boxPub != nil {
			t.Fatalf("seed %d: box key derived at construction", seed)
		}
		if got := hex.EncodeToString(k.Public().BoxPub); got != want {
			t.Fatalf("seed %d: BoxPub %s, want %s", seed, got, want)
		}
	}
}

// The first Open and the first Public of one KeyPair, concurrently: one
// derivation, which every caller sees (run under -race).
func TestBoxKeyFirstUseConcurrent(t *testing.T) {
	want := mustPair(t, 21).Public().BoxPub
	box, err := Seal(PublicIdentity{BoxPub: want}, []byte("first use"))
	if err != nil {
		t.Fatal(err)
	}
	k := mustPair(t, 21)
	var wg sync.WaitGroup
	pubs := make([][]byte, 8)
	for i := range pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if pt, err := k.Open(box); err != nil || string(pt) != "first use" {
					t.Errorf("open %d: %q, %v", i, pt, err)
				}
				return
			}
			pubs[i] = k.Public().BoxPub
		}()
	}
	wg.Wait()
	for i := 1; i < len(pubs); i += 2 {
		if !bytes.Equal(pubs[i], want) {
			t.Fatalf("Public %d: BoxPub %x, want %x", i, pubs[i], want)
		}
	}
}

func TestNewNonceUnique(t *testing.T) {
	a, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two nonces identical")
	}
}

// Property: seal/open round-trips arbitrary payloads.
func TestPropertySealOpen(t *testing.T) {
	k := mustPair(t, 30)
	f := func(msg []byte) bool {
		box, err := Seal(k.Public(), msg)
		if err != nil {
			return false
		}
		got, err := k.Open(box)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: signatures verify for the signed message and fail for any
// prefix-modified variant.
func TestPropertySignTamper(t *testing.T) {
	k := mustPair(t, 31)
	f := func(msg []byte, flip uint8) bool {
		sig := k.Sign(msg)
		if k.Public().Verify(msg, sig) != nil {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		bad := append([]byte(nil), msg...)
		bad[int(flip)%len(bad)] ^= 0xFF
		return k.Public().Verify(bad, sig) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCertVerifierMemoization pins the cache's safety properties: hits
// agree with VerifyCert, the validity window is re-checked on every call
// (a cached cert still expires), tampering misses the cache, and the
// entry count stays bounded.
func TestCertVerifierMemoization(t *testing.T) {
	ca, err := NewCAFromSeed("root", bytes.Repeat([]byte{42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	telco := mustPair(t, 12)
	now := time.Unix(1_700_000_000, 0)
	cert := ca.Issue("btelco-1.example", "btelco", telco.Public(), now.Add(-time.Hour), now.Add(time.Hour))

	v := NewCertVerifier(ca.Public(), 4)
	for i := 0; i < 3; i++ { // first call populates, later ones hit
		if err := v.Verify(cert, now); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Miss or hit, VerifyDigest names the certificate the way Digest does.
	fresh := NewCertVerifier(ca.Public(), 4)
	for i := 0; i < 2; i++ {
		if d, err := fresh.VerifyDigest(cert, now); err != nil || d != cert.Digest() {
			t.Fatalf("VerifyDigest call %d: %x, %v", i, d, err)
		}
	}
	// Cached entry must still honour the validity window.
	if err := v.Verify(cert, now.Add(2*time.Hour)); err != ErrExpired {
		t.Fatalf("cached expired cert: err=%v, want ErrExpired", err)
	}
	if err := v.Verify(cert, now.Add(-2*time.Hour)); err != ErrExpired {
		t.Fatalf("cached premature cert: err=%v, want ErrExpired", err)
	}
	// Tampering changes the digest key, so the forgery cannot ride the
	// cached verdict.
	bad := *cert
	bad.Subject = "evil"
	if err := v.Verify(&bad, now); err != ErrBadCertificate {
		t.Fatalf("tampered cert: err=%v, want ErrBadCertificate", err)
	}
	if err := v.Verify(nil, now); err != ErrBadCertificate {
		t.Fatalf("nil cert: err=%v", err)
	}
	// Bounded: issuing more certs than the cap must not grow the map.
	for i := 0; i < 10; i++ {
		k := mustPair(t, byte(100+i))
		c := ca.Issue(fmt.Sprintf("t%d", i), "btelco", k.Public(), now.Add(-time.Hour), now.Add(time.Hour))
		if err := v.Verify(c, now); err != nil {
			t.Fatalf("cert %d: %v", i, err)
		}
	}
	v.mu.Lock()
	n := len(v.seen)
	v.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache grew to %d entries, cap 4", n)
	}
}
