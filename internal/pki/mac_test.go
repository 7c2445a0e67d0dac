package pki

import (
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: MAC is crypto/hmac's HMAC-SHA256 for any key (past the block
// size too), any label and any split of the message — below the stack
// buffer, at its edge and spilled to the heap.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	check := func(key []byte, label string, a, b []byte) bool {
		ref := hmac.New(sha256.New, key)
		ref.Write([]byte(label))
		ref.Write(a)
		ref.Write(b)
		m := NewMAC(key)
		got := m.Sum(label, a, b)
		return hmac.Equal(got[:], ref.Sum(nil))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	// quick's slices average ~25 bytes: walk the sizes it rarely draws.
	room := macStackBuf - sha256.BlockSize
	for _, keyLen := range []int{0, 1, 16, 32, sha256.BlockSize - 1, sha256.BlockSize, sha256.BlockSize + 1, 200} {
		for _, msgLen := range []int{0, 1, room - 1, room, room + 1, 2 * macStackBuf, 5000} {
			key, msg := random(keyLen), random(msgLen)
			cut := rng.Intn(msgLen + 1)
			if !check(key, "", msg[:cut], msg[cut:]) || !check(key, string(random(rng.Intn(40))), msg[:cut], msg[cut:]) {
				t.Fatalf("MAC differs from crypto/hmac at a %d-byte key and a %d-byte message", keyLen, msgLen)
			}
		}
	}

	// One key, many messages: the pads are not consumed by a Sum.
	m := NewMAC(random(32))
	first := m.Sum("label", []byte("a"), nil)
	m.Sum("other", random(300), nil)
	if m.Sum("label", []byte("a"), nil) != first {
		t.Fatal("a MAC's second answer for one message differs from its first")
	}
	msg := random(room)
	if n := testing.AllocsPerRun(100, func() { m.Sum("", msg, nil) }); n != 0 {
		t.Fatalf("Sum allocates %v objects for a message that fits the stack buffer", n)
	}
	msg = random(room + 1)
	if n := testing.AllocsPerRun(100, func() { m.Sum("", msg, nil) }); n != 1 {
		t.Fatalf("Sum allocates %v objects for a spilled message, want its one buffer", n)
	}
}
