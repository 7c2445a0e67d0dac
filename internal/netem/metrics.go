package netem

import (
	"cellbricks/internal/obs"
)

// Package-wide telemetry handles. Every Sim in the process feeds the same
// counters — the registry aggregates across the experiment runner's
// concurrent simulations, exactly like a multi-core router's per-CPU
// counters summing into one SNMP view. A Sim is single-goroutine, so the
// hot path increments plain per-Sim integers (see simMetrics) and flushes
// them into these shared atomics every flushEvery events and at the end of
// each Run/RunUntil — the overhead benchmark in metrics_bench_test.go
// holds the enabled-vs-disabled delta under 5%.
//
// Telemetry never touches a Sim's seeded RNG or its event queue, so
// enabling it cannot perturb event ordering or experiment output — the
// determinism golden tests run with it on.
var mtr struct {
	sent      *obs.Counter
	delivered *obs.Counter
	dropQueue *obs.Counter
	xshard    *obs.Counter

	// A sharded World's barriers: its windows, and the nanoseconds its
	// coordinator waited for the other workers.
	windows     *obs.Counter
	barrierWait *obs.Counter
}

func init() { SetMetricsEnabled(true) }

// SetMetricsEnabled installs (true) or removes (false) the package's
// handles in the default registry. Call at process or test setup, not
// while simulations are running.
func SetMetricsEnabled(on bool) {
	if !on {
		mtr.sent, mtr.delivered, mtr.dropQueue, mtr.xshard = nil, nil, nil, nil
		mtr.windows, mtr.barrierWait = nil, nil
		return
	}
	r := obs.Default()
	mtr.sent = r.Counter("netem_packets_sent_total", "packets admitted onto an emulated link")
	mtr.delivered = r.Counter("netem_packets_delivered_total", "packets handed to a registered receiver")
	mtr.dropQueue = r.Counter("netem_drops_queue_total", "packets dropped by a full queue, shaper, or transit hook")
	mtr.xshard = r.Counter("netem_xshard_packets_total", "packets carried across shard mailboxes in sharded worlds")
	mtr.windows = r.Counter("netem_world_windows_total", "lock-step windows run by sharded worlds")
	mtr.barrierWait = r.Counter("netem_world_barrier_wait_ns_total", "nanoseconds a sharded world's coordinator waited at window barriers for its other workers")
}

// flushEvery is the hot-path batch size: per-Sim counts migrate into the
// shared registry every 2^10 sends+deliveries (and at the end of every
// RunUntil), trading one atomic per packet for one per kilopacket.
const flushEvery = 1 << 10

// simMetrics is a Sim's local accumulation. Plain integers: a Sim is
// single-goroutine by contract.
type simMetrics struct {
	tick      uint64 // sends+deliveries since the last flush trigger check
	sent      uint64
	delivered uint64
}

// FlushMetrics publishes the Sim's locally accumulated counts into the
// process-wide registry. Run and RunUntil call it on return; call it
// directly before scraping mid-run.
func (s *Sim) FlushMetrics() {
	m := &s.mtrLocal
	if m.sent > 0 {
		mtr.sent.Add(m.sent)
		m.sent = 0
	}
	if m.delivered > 0 {
		mtr.delivered.Add(m.delivered)
		m.delivered = 0
	}
}
