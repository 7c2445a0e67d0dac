package ue

import (
	"cellbricks/internal/obs"
)

// Telemetry handles for the UE attach path. The FSM drives both real
// sockets and the discrete-event testbed; counters are append-only
// atomics that never touch the FSM's rng or the caller's clock, so the
// seeded experiments stay byte-identical with telemetry on.
var mtr struct {
	retries       *obs.Counter
	fallbacks     *obs.Counter
	giveups       *obs.Counter
	sheds         *obs.Counter
	retransmits   *obs.Counter
	reclaims      *obs.Counter
	watchdogTrips *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.retries = r.Counter("ue_attach_retries_total", "attach failures absorbed by the retry FSM")
	mtr.fallbacks = r.Counter("ue_attach_fallbacks_total", "times the FSM rotated off the serving bTelco")
	mtr.giveups = r.Counter("ue_attach_giveups_total", "attach budgets exhausted without success")
	mtr.sheds = r.Counter("ue_attach_shed_total", "attach attempts refused by a shedding broker (typed retry-after hint honored)")
	mtr.retransmits = r.Counter("ue_attach_retransmits_total", "attach attempts that resent a shed request instead of building a new one")
	mtr.reclaims = r.Counter("ue_attach_tickets_reclaimed_total", "tickets handed back from a shed request abandoned for another bTelco")
	mtr.watchdogTrips = r.Counter("ue_watchdog_trips_total", "no-goodput watchdog trips (blackhole evidence)")
}
