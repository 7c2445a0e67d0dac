package epc

import (
	"cellbricks/internal/obs"
)

// Telemetry handles for the AGW. The active-sessions gauge moves by ±1 in
// activate/dropSession, mirroring the authoritative per-session state
// under the AGW mutex — the registry view is a cross-AGW aggregate.
var mtr struct {
	attaches       *obs.Counter
	attachFailures *obs.Counter
	nasMessages    *obs.Counter
	activeSessions *obs.Gauge

	receipts        *obs.Counter
	receiptFailures *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.attaches = r.Counter("epc_attaches_total", "sessions activated by the AGW")
	mtr.attachFailures = r.Counter("epc_attach_failures_total", "attach attempts rejected by the AGW")
	mtr.nasMessages = r.Counter("epc_nas_messages_total", "uplink NAS messages processed")
	mtr.activeSessions = r.Gauge("epc_active_sessions", "sessions currently in the active state across AGWs")
	mtr.receipts = r.Counter("epc_receipts_total", "receipts redeemed for a bTelco's MAC-mode grants")
	mtr.receiptFailures = r.Counter("epc_receipt_failures_total", "receipt redemptions refused or failed in transit")
}
