package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"
)

// resetSeedTable empties KeyPairFromSeed's table, so the next call of each
// seed derives cold.
func resetSeedTable() {
	seedTable.mu.Lock()
	seedTable.keys = nil
	seedTable.mu.Unlock()
}

func seedTableLen() int {
	seedTable.mu.Lock()
	defer seedTable.mu.Unlock()
	return len(seedTable.keys)
}

// seededOutputs lists what a seeded key computes with no randomness: its
// flattened identity, a signature, its box public key and a pass.
func seededOutputs(k *KeyPair) [][]byte {
	_, boxPub := k.box()
	pass := k.Pass(sha256.Sum256([]byte("a certificate")))
	return [][]byte{k.Public().Bytes(), k.Sign([]byte("cold or warm")), boxPub, pass.Locator[:], pass.Key[:]}
}

// A seeded key taken from the table computes what the one that filled it
// did: the same bytes out, and each opens what the other's owner was sent
// and honours the tickets the other minted.
func TestSeededKeyWarmEqualsCold(t *testing.T) {
	resetSeedTable()
	seed := bytes.Repeat([]byte{61}, 32)
	cold, err := KeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	want := seededOutputs(cold)
	warm, err := KeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if warm.derived != cold.derived || seedTableLen() != 1 {
		t.Fatalf("the second call derived again: shared %v, table of %d", warm.derived == cold.derived, seedTableLen())
	}
	for i, got := range seededOutputs(warm) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("output %d: warm %x, cold %x", i, got, want[i])
		}
	}
	msg := []byte("authVec")
	for _, kp := range [][2]*KeyPair{{cold, warm}, {warm, cold}} {
		minter, opener := kp[0], kp[1]
		_, s := mustTicket(t, minter, "idU-61")
		box := mustSeal(t, s, msg)
		if pt, err := opener.Open(box); err != nil || !bytes.Equal(pt, msg) || !opener.TicketBound(box, "idU-61") {
			t.Fatalf("a ticket one minted, at the other: %q, %v", pt, err)
		}
		box, err := Seal(minter.Public(), msg)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := opener.Open(box); err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("a box sealed to one, at the other: %q, %v", pt, err)
		}
	}
}

// KeyPairs of one seed share what it determines and nothing of their own:
// an Open on one leaves the other's memo empty and its box key underived.
func TestSeededKeysShareNoMemo(t *testing.T) {
	a, b := mustPair(t, 62), mustPair(t, 62)
	if _, err := a.Open(mustSeal(t, mustSealer(t, a), []byte("m"))); err != nil {
		t.Fatal(err)
	}
	if a.memoLen() != 1 || b.memoLen() != 0 || b.boxPub != nil {
		t.Fatalf("after an Open on one: memos of %d and %d, other's box key derived %v", a.memoLen(), b.memoLen(), b.boxPub != nil)
	}
	if &a.Pub[0] == &b.Pub[0] {
		t.Fatal("two KeyPairs share the Pub slice their holders may write")
	}
}

// The table stops at its cap, and a seed past it is derived, not kept, and
// correct.
func TestSeedTableBounded(t *testing.T) {
	resetSeedTable()
	defer resetSeedTable()
	var seed [ed25519.SeedSize]byte
	for i := 0; i <= seedTableCap; i++ {
		binary.BigEndian.PutUint32(seed[:], uint32(i))
		if _, err := KeyPairFromSeed(seed[:]); err != nil {
			t.Fatal(err)
		}
	}
	if n := seedTableLen(); n != seedTableCap {
		t.Fatalf("%d seeds leave a table of %d, want the cap %d", seedTableCap+1, n, seedTableCap)
	}
	past, err := KeyPairFromSeed(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := KeyPairFromSeed(seed[:]); again.derived == past.derived {
		t.Fatal("a seed past the cap was kept")
	}
	if ref := ed25519.NewKeyFromSeed(seed[:]); !bytes.Equal(past.Pub, ref.Public().(ed25519.PublicKey)) {
		t.Fatal("the key past the cap is not its seed's")
	}
	msg := []byte("past the cap")
	if err := past.Public().Verify(msg, past.Sign(msg)); err != nil {
		t.Fatal(err)
	}
	box, err := Seal(past.Public(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := past.Open(box); err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("a box to the key past the cap: %q, %v", pt, err)
	}
}

// Concurrent first calls of one seed, and of box() on what they return,
// agree (run under -race).
func TestSeedTableConcurrent(t *testing.T) {
	resetSeedTable()
	seed := bytes.Repeat([]byte{63}, 32)
	pubs := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := KeyPairFromSeed(seed)
			if err != nil {
				t.Error(err)
				return
			}
			_, pubs[i] = k.box()
		}()
	}
	wg.Wait()
	want := mustPair(t, 63).Public().BoxPub
	for i, p := range pubs {
		if !bytes.Equal(p, want) {
			t.Fatalf("goroutine %d: box key %x, want %x", i, p, want)
		}
	}
}
