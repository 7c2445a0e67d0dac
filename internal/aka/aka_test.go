package aka

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testK(b byte) K {
	var k K
	for i := range k {
		k[i] = b
	}
	return k
}

func testRAND(b byte) [RANDSize]byte {
	var r [RANDSize]byte
	for i := range r {
		r[i] = b
	}
	return r
}

func TestMutualAuthSuccess(t *testing.T) {
	k := testK(1)
	sim := &SIM{K: k, SQN: 10}
	v := generateVector(k, 11, testRAND(7))
	res, kasme, err := sim.Answer(v.RAND, v.AUTN)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, v.XRES) {
		t.Fatal("RES != XRES")
	}
	if kasme != v.KASME {
		t.Fatal("KASME mismatch between UE and network")
	}
	if sim.SQN != 11 {
		t.Fatalf("SIM SQN = %d, want 11", sim.SQN)
	}
}

func TestWrongKeyFailsMAC(t *testing.T) {
	v := generateVector(testK(2), 5, testRAND(9))
	sim := &SIM{K: testK(3), SQN: 1}
	if _, _, err := sim.Answer(v.RAND, v.AUTN); !errors.Is(err, ErrMACFailure) {
		t.Fatalf("err=%v, want ErrMACFailure", err)
	}
}

func TestReplayFailsSync(t *testing.T) {
	k := testK(4)
	sim := &SIM{K: k, SQN: 0}
	v := generateVector(k, 1, testRAND(1))
	if _, _, err := sim.Answer(v.RAND, v.AUTN); err != nil {
		t.Fatal(err)
	}
	// Replaying the same vector must fail.
	if _, _, err := sim.Answer(v.RAND, v.AUTN); !errors.Is(err, ErrSyncFailure) {
		t.Fatalf("replay err=%v, want ErrSyncFailure", err)
	}
}

func TestFarFutureSQNFailsSync(t *testing.T) {
	k := testK(5)
	sim := &SIM{K: k, SQN: 0}
	v := generateVector(k, 1<<30, testRAND(2))
	if _, _, err := sim.Answer(v.RAND, v.AUTN); !errors.Is(err, ErrSyncFailure) {
		t.Fatalf("err=%v, want ErrSyncFailure", err)
	}
}

func TestTamperedAUTN(t *testing.T) {
	k := testK(6)
	sim := &SIM{K: k}
	v := generateVector(k, 1, testRAND(3))
	bad := append([]byte(nil), v.AUTN...)
	bad[len(bad)-1] ^= 1
	if _, _, err := sim.Answer(v.RAND, bad); !errors.Is(err, ErrMACFailure) {
		t.Fatalf("err=%v, want ErrMACFailure", err)
	}
	if _, _, err := sim.Answer(v.RAND, bad[:5]); !errors.Is(err, ErrBadAUTN) {
		t.Fatalf("short AUTN err=%v, want ErrBadAUTN", err)
	}
}

func TestVectorsDifferAcrossSQN(t *testing.T) {
	k := testK(7)
	a := generateVector(k, 1, testRAND(4))
	b := generateVector(k, 2, testRAND(4))
	if a.KASME == b.KASME {
		t.Fatal("KASME identical across SQNs")
	}
	if bytes.Equal(a.AUTN, b.AUTN) {
		t.Fatal("AUTN identical across SQNs")
	}
}

func TestGenerateVectorRandomRAND(t *testing.T) {
	k := testK(8)
	a, err := GenerateVector(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateVector(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.RAND == b.RAND {
		t.Fatal("two vectors share RAND")
	}
}

func TestSQNConcealed(t *testing.T) {
	// AUTN must not leak SQN in the clear: two consecutive SQNs under
	// different RANDs should not reveal a +1 pattern in the first 6 bytes.
	k := testK(9)
	a := generateVector(k, 100, testRAND(10))
	b := generateVector(k, 101, testRAND(11))
	if bytes.Equal(a.AUTN[:6], b.AUTN[:6]) {
		t.Fatal("concealed SQN identical across RANDs")
	}
}

// Property: for any key byte pattern and increasing SQN sequence, the SIM
// accepts each fresh vector exactly once, deriving the network's KASME.
func TestPropertyAKAAgreement(t *testing.T) {
	f := func(keyByte, randByte byte, steps uint8) bool {
		k := testK(keyByte)
		sim := &SIM{K: k}
		n := int(steps%16) + 1
		for i := 1; i <= n; i++ {
			v := generateVector(k, uint64(i), testRAND(randByte+byte(i)))
			res, kasme, err := sim.Answer(v.RAND, v.AUTN)
			if err != nil || !bytes.Equal(res, v.XRES) || kasme != v.KASME {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
