package chaos

import (
	"math/rand"
	"net"
	"sync"
)

// FaultyConn wraps a real net.Conn and injects byte corruption and write
// truncation from a seeded rng, so wire-level recovery (redial, framing
// resync, retries) can be exercised against real TCP sockets with a
// reproducible fault sequence. Faults are drawn per Write in call order:
// the same seed against the same write sequence corrupts the same bytes.
type FaultyConn struct {
	net.Conn

	mu           sync.Mutex
	rng          *rand.Rand
	corruptRate  float64 // probability a Write has one byte flipped
	truncateRate float64 // probability a Write is cut short (conn lies: reports full length)

	corrupted int
	truncated int
}

// NewFaultyConn wraps conn with a seeded fault source. Rates are
// per-Write probabilities in [0,1].
func NewFaultyConn(conn net.Conn, seed int64, corruptRate, truncateRate float64) *FaultyConn {
	return &FaultyConn{
		Conn:         conn,
		rng:          rand.New(rand.NewSource(seed)),
		corruptRate:  corruptRate,
		truncateRate: truncateRate,
	}
}

// Faults reports how many writes were corrupted and truncated.
func (c *FaultyConn) Faults() (corrupted, truncated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupted, c.truncated
}

// Write injects the scheduled faults. A truncated write sends only the
// first half of the buffer but reports success for all of it — the
// nastiest failure mode for a length-prefixed framing protocol, since the
// peer now reads a frame that never completes. A corrupted write flips one
// byte in a copy (the caller's buffer is never mutated).
func (c *FaultyConn) Write(p []byte) (int, error) {
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
