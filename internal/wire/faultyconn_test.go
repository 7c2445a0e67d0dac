package wire

import (
	"math/rand"
	"net"
	"sync"
	"testing"
)

// faultyConn wraps a real net.Conn and injects byte corruption and write
// truncation from a seeded rng, so wire-level recovery (redial, framing
// resync, retries) can be exercised against real TCP sockets with a
// reproducible fault sequence. Faults are drawn per Write in call order:
// the same seed against the same write sequence corrupts the same bytes.
// The robustness tests plug it in through Options.Dialer.
type faultyConn struct {
	net.Conn

	mu           sync.Mutex
	rng          *rand.Rand
	corruptRate  float64 // probability a Write has one byte flipped
	truncateRate float64 // probability a Write is cut short (conn lies: reports full length)

	corrupted int
	truncated int
}

// newFaultyConn wraps conn with a seeded fault source. Rates are
// per-Write probabilities in [0,1].
func newFaultyConn(conn net.Conn, seed int64, corruptRate, truncateRate float64) *faultyConn {
	return &faultyConn{
		Conn:         conn,
		rng:          rand.New(rand.NewSource(seed)),
		corruptRate:  corruptRate,
		truncateRate: truncateRate,
	}
}

// Write injects the scheduled faults. A truncated write sends only the
// first half of the buffer but reports success for all of it — the
// nastiest failure mode for a length-prefixed framing protocol, since the
// peer now reads a frame that never completes. A corrupted write flips one
// byte in a copy (the caller's buffer is never mutated).
func (c *faultyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	truncate := len(p) > 1 && c.truncateRate > 0 && c.rng.Float64() < c.truncateRate
	corrupt := !truncate && len(p) > 0 && c.corruptRate > 0 && c.rng.Float64() < c.corruptRate
	var victim int
	if corrupt {
		victim = c.rng.Intn(len(p))
		c.corrupted++
	}
	if truncate {
		c.truncated++
	}
	c.mu.Unlock()

	switch {
	case truncate:
		if _, err := c.Conn.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		// Report the full length, then kill the conn: the bytes are
		// gone and the peer's frame will never complete.
		_ = c.Conn.Close()
		return len(p), nil
	case corrupt:
		buf := make([]byte, len(p))
		copy(buf, p)
		buf[victim] ^= 0xff
		return c.Conn.Write(buf)
	default:
		return c.Conn.Write(p)
	}
}

func TestFaultyConnDeterministic(t *testing.T) {
	run := func(seed int64) (corrupted, truncated int, payload []byte) {
		client, server := net.Pipe()
		defer server.Close()
		fc := newFaultyConn(client, seed, 0.3, 0.2)
		done := make(chan []byte, 1)
		go func() {
			buf := make([]byte, 4096)
			total := 0
			for {
				n, err := server.Read(buf[total:])
				total += n
				if err != nil {
					break
				}
			}
			done <- buf[:total]
		}()
		for i := 0; i < 20; i++ {
			msg := make([]byte, 16)
			for j := range msg {
				msg[j] = byte(i)
			}
			if _, err := fc.Write(msg); err != nil {
				break
			}
		}
		fc.Close()
		payload = <-done
		fc.mu.Lock()
		defer fc.mu.Unlock()
		return fc.corrupted, fc.truncated, payload
	}
	c1, t1, p1 := run(99)
	c2, t2, p2 := run(99)
	if c1 != c2 || t1 != t2 || string(p1) != string(p2) {
		t.Fatalf("same seed diverged: (%d,%d,%d bytes) vs (%d,%d,%d bytes)",
			c1, t1, len(p1), c2, t2, len(p2))
	}
	if c1 == 0 && t1 == 0 {
		t.Fatalf("expected some faults at 30%%/20%% over 20 writes")
	}
}
