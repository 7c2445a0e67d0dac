package ue

import (
	"cellbricks/internal/obs"
)

// Telemetry handles for the UE attach path. The FSM drives both real
// sockets and the discrete-event testbed; counters are append-only
// atomics that never touch the FSM's rng or the caller's clock, so the
// seeded experiments stay byte-identical with telemetry on.
var mtr struct {
	retransmits *obs.Counter
	reclaims    *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.retransmits = r.Counter("ue_attach_retransmits_total", "attach attempts that resent a shed request instead of building a new one")
	mtr.reclaims = r.Counter("ue_attach_tickets_reclaimed_total", "tickets handed back from a shed request abandoned for another bTelco")
}
