package epc

import (
	"cellbricks/internal/obs"
)

// Telemetry handles for the AGW: cross-AGW aggregates.
var mtr struct {
	attaches       *obs.Counter
	attachFailures *obs.Counter
	receipts       *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.attaches = r.Counter("epc_attaches_total", "sessions activated by the AGW")
	mtr.attachFailures = r.Counter("epc_attach_failures_total", "attach attempts rejected by the AGW")
	mtr.receipts = r.Counter("epc_receipts_total", "receipts redeemed for a bTelco's MAC-mode grants")
}
