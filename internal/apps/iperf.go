package apps

import (
	"time"

	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
)

// IperfResult summarizes a bulk-throughput run.
type IperfResult struct {
	AvgBps    float64
	Series    []float64 // per-bin throughput in bps
	BinLength time.Duration
	Delivered uint64
}

// Iperf is a bulk download measurement over a transport connection: the
// server keeps the pipe full and the client bins delivered bytes per
// interval (the paper samples at 1-second intervals, Fig. 8).
type Iperf struct {
	sim  *netem.Sim
	conn *mptcp.Conn
	bin  time.Duration

	series    []float64
	binBytes  uint64
	total     uint64
	started   time.Duration
	stopped   bool
	stopEvent *netem.Event
}

// NewIperf attaches an iperf measurement to a connection. bin is the
// sampling interval (default 1 s when zero).
func NewIperf(sim *netem.Sim, conn *mptcp.Conn, bin time.Duration) *Iperf {
	if bin <= 0 {
		bin = time.Second
	}
	ip := &Iperf{sim: sim, conn: conn, bin: bin}
	conn.OnDeliver = func(n int) {
		ip.binBytes += uint64(n)
		ip.total += uint64(n)
	}
	return ip
}

// Run drives the measurement for dur, keeping the sender backlogged, and
// returns the result. It schedules everything on the simulator; the caller
// must not run the simulator concurrently.
func (ip *Iperf) Run(dur time.Duration) IperfResult {
	ip.started = ip.sim.Now()
	// Keep the pipe deeply backlogged: top up every second.
	var topUp func()
	topUp = func() {
		if ip.stopped {
			return
		}
		ip.conn.Write(64 << 20)
		ip.sim.After(time.Second, topUp)
	}
	topUp()

	var sample func()
	sample = func() {
		ip.series = append(ip.series, float64(ip.binBytes)*8/ip.bin.Seconds())
		ip.binBytes = 0
		if !ip.stopped {
			ip.sim.After(ip.bin, sample)
		}
	}
	ip.sim.After(ip.bin, sample)
	ip.sim.After(dur, func() { ip.stopped = true })
	ip.sim.RunUntil(ip.started + dur)

	elapsed := ip.sim.Now() - ip.started
	res := IperfResult{
		Series:    ip.series,
		BinLength: ip.bin,
		Delivered: ip.total,
	}
	if elapsed > 0 {
		res.AvgBps = float64(ip.total) * 8 / elapsed.Seconds()
	}
	return res
}
