package mptcp

import (
	"fmt"
	"testing"
	"time"

	"cellbricks/internal/netem"
)

func TestDebugOvershoot2(t *testing.T) {
	const rate = 16e6
	sim := netem.NewSim(11)
	sim.Connect("server", "client", cellLink(rate, 25*time.Millisecond))
	cfg := DefaultConfig()
	cfg.AddrWorkWait = 0
	c := NewConn(sim, "server", "client", cfg)
	c.Write(500 << 20)
	sim.RunUntil(10 * time.Second)
	c.AddrInvalidated()
	sim.Connect("server", "client2", cellLink(rate, 25*time.Millisecond))
	sim.After(time.Second, func() { c.AddrAvailable("client2") })
	sim.RunUntil(11 * time.Second)
	last := c.Delivered()
	for half := 23; half <= 34; half++ {
		sim.RunUntil(time.Duration(half) * 500 * time.Millisecond)
		fmt.Printf("t=%.1fs rate=%5.1f cwnd=%7.0f ssthresh=%7.0f\n", float64(half)/2, float64(c.Delivered()-last)*8*2/1e6, c.sender.cwnd, c.sender.ssthresh)
		last = c.Delivered()
	}
}
