// Package testbed wires the CellBricks components into runnable
// experiments: the prototype attachment benchmark (Fig. 7), the
// wide-area mobility emulation (Table 1, Figs. 8-10), the
// fault-injection failover run, the sharded multi-cell scale sweep, the
// Byzantine quarantine soak, the open-loop attach storm, and the
// real-socket loopback deployment used for end-to-end integration
// tests. Entry points are the Run* functions (RunAttach, RunDrive,
// RunFailover, RunScale, RunByzantine, RunStorm, ...), each
// deterministic per seed and byte-identical for any shard count.
package testbed

import (
	"sync"
	"time"
)

// VirtualClock accumulates simulated latency for the prototype benchmark:
// static per-module processing costs (calibrated to the paper's testbed)
// plus the *measured wall time* of the real cryptographic and protocol
// work this implementation performs, so CellBricks' extra crypto shows up
// honestly in the breakdown.
type VirtualClock struct {
	mu    sync.Mutex
	now   time.Duration
	spans map[string]time.Duration
}

// NewVirtualClock returns an empty clock.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{spans: make(map[string]time.Duration)}
}

// benchNow is the wall-clock source behind the measured-crypto charges.
// The golden determinism tests replace it with a frozen clock so that the
// only nondeterministic input to the Fig. 7 numbers disappears and a
// parallel run can be compared byte-for-byte against a sequential one.
var benchNow = time.Now

// Now returns accumulated virtual time.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Charge adds d to the clock under a module label.
func (c *VirtualClock) Charge(module string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	c.spans[module] += d
}

// Spans returns a copy of the per-module accumulation.
func (c *VirtualClock) Spans() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.spans))
	for k, v := range c.spans {
		out[k] = v
	}
	return out
}
