package pki

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// aheadIdle waits for the exchange worker to exit and returns the counts
// of exchanges it ran and NewSealer handed out.
func aheadIdle(t testing.TB) (ran, taken int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ahead.mu.Lock()
		running, ran, taken := ahead.running, ahead.ran, ahead.taken
		ahead.mu.Unlock()
		if !running {
			return ran, taken
		}
		if time.Now().After(deadline) {
			t.Fatal("exchange worker still running after 10 s")
		}
		runtime.Gosched()
	}
}

// aheadReady is how many exchanges are ready for recipient.
func aheadReady(recipient PublicIdentity) int {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	for i := range ahead.lines {
		if l := &ahead.lines[i]; l.pub != nil && bytes.Equal(l.rpk[:], recipient.BoxPub) {
			return l.n
		}
	}
	return 0
}

// withProcs runs fn at GOMAXPROCS n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func freshPair(t testing.TB) *KeyPair {
	t.Helper()
	k, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// Rule "each exchange handed out once, to its own recipient" (DESIGN.md
// §2.7): sealers built concurrently to warm recipients, some of them on
// exchanges the worker ran, all carry distinct epks, and each box opens
// under its recipient's key pair and under no other.
func TestSealersAheadDistinctAndOwnRecipient(t *testing.T) {
	withProcs(2, func() {
		keys := []*KeyPair{freshPair(t), freshPair(t), freshPair(t)}
		for _, k := range keys {
			for i := 0; i < aheadWarm; i++ {
				mustSealer(t, k)
			}
		}
		_, taken0 := aheadIdle(t)
		const goroutines, calls = 2, 500
		boxes := make([][][]byte, len(keys))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					r := i % len(keys)
					s, err := NewSealer(keys[r].Public())
					if err != nil {
						t.Error(err)
						return
					}
					box, err := s.Seal(raw([]byte("authVec")))
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					boxes[r] = append(boxes[r], box)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		_, taken := aheadIdle(t)
		if taken == taken0 {
			t.Fatalf("%d sealers to warm recipients, none on an exchange the worker ran", goroutines*calls)
		}
		epks := map[string]bool{}
		for r, rb := range boxes {
			for _, box := range rb {
				if epks[string(box[:epkSize])] {
					t.Fatal("two sealers carry one epk")
				}
				epks[string(box[:epkSize])] = true
				for o, k := range keys {
					_, err := k.Open(box)
					if (err == nil) != (o == r) {
						t.Fatalf("box to recipient %d under key pair %d: %v", r, o, err)
					}
				}
			}
		}
		if len(epks) != goroutines*calls {
			t.Fatalf("%d boxes, %d epks", goroutines*calls, len(epks))
		}
		t.Logf("%d of %d sealers on exchanges run ahead", taken-taken0, goroutines*calls)
	})
}

// Rule "system randomness only": while rand.Reader is swapped, a warm
// recipient's sealer draws its key from that reader — the epk is what the
// reader's bytes determine — and its ready exchanges stay where they are.
func TestSealerAheadYieldsToSwappedReader(t *testing.T) {
	withProcs(2, func() {
		k := freshPair(t)
		for i := 0; i < aheadWarm+1; i++ {
			mustSealer(t, k)
		}
		aheadIdle(t)
		ready := aheadReady(k.Public())
		if ready == 0 {
			t.Fatal("a warm recipient has no exchange ready")
		}
		saved := rand.Reader
		rand.Reader = bytes.NewReader(bytes.Repeat([]byte{7}, 64))
		s, err := NewSealer(k.Public())
		rand.Reader = saved
		if err != nil {
			t.Fatal(err)
		}
		want, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{7}, 32))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.epk[:], want.PublicKey().Bytes()) {
			t.Fatal("under a swapped rand.Reader the sealer's epk is not the reader's")
		}
		aheadIdle(t)
		if got := aheadReady(k.Public()); got != ready {
			t.Fatalf("a sealer under a swapped rand.Reader moved the recipient's ready exchanges %d → %d", ready, got)
		}
	})
}

// Rule "demand-bounded": recipients sealed to once each, and a warm one on a
// single core, cost the worker nothing; and once it is idle no goroutine is
// left behind.
func TestSealerAheadOnlyOnDemand(t *testing.T) {
	ran0, _ := aheadIdle(t)
	goroutines := runtime.NumGoroutine()
	withProcs(2, func() {
		for i := 0; i < 100; i++ {
			mustSealer(t, freshPair(t))
		}
	})
	withProcs(1, func() {
		k := freshPair(t)
		for i := 0; i < 10; i++ {
			mustSealer(t, k)
		}
	})
	if ran, _ := aheadIdle(t); ran != ran0 {
		t.Fatalf("cold recipients and a one-core host cost %d exchanges ahead", ran-ran0)
	}

	withProcs(2, func() {
		k := freshPair(t)
		for i := 0; i < aheadWarm+1; i++ {
			mustSealer(t, k)
		}
	})
	if ran, _ := aheadIdle(t); ran == ran0 {
		t.Fatal("a warm recipient on two cores got no exchange run ahead")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with the worker idle, %d before", runtime.NumGoroutine(), goroutines)
		}
		runtime.Gosched()
	}
}

// Rule "no idle core, no work ahead": a worker that finds GOMAXPROCS at 1
// exits before its next exchange and leaves what is owed for a NewSealer on
// more cores, which starts it again.
func TestSealerAheadStopsAtOneCore(t *testing.T) {
	k := freshPair(t)
	withProcs(2, func() {
		for i := 0; i < aheadWarm; i++ {
			mustSealer(t, k)
		}
	})
	ran0, _ := aheadIdle(t)
	withProcs(1, func() {
		ahead.mu.Lock()
		l := ahead.line(nil, k.Public().BoxPub)
		l.owed = aheadDepth - l.n
		ahead.running = true
		ahead.mu.Unlock()
		runAhead()
	})
	if ran, _ := aheadIdle(t); ran != ran0 {
		t.Fatalf("the worker ran %d exchanges at GOMAXPROCS 1", ran-ran0)
	}
	withProcs(2, func() { mustSealer(t, k) })
	aheadIdle(t)
	if got := aheadReady(k.Public()); got != aheadDepth {
		t.Fatalf("%d exchanges ready after the owed ones and a replacement ran on two cores, want %d", got, aheadDepth)
	}
}
