package broker

import (
	"cellbricks/internal/obs"
)

// Telemetry handles for brokerd. Attach authorization and report
// ingestion run under the broker's own mutex, so direct atomic adds here
// are negligible next to the Ed25519 work on the same path.
var mtr struct {
	attachGranted *obs.Counter
	attachDenied  *obs.Counter
	reports       *obs.Counter
	mismatches    *obs.Counter
	replays       *obs.Counter

	admissionRateShed  *obs.Counter
	admissionQueueShed *obs.Counter
	receiptsSigned     *obs.Counter

	reportsMACd         *obs.Counter
	checkpointsVerified *obs.Counter
	checkpointsRefused  *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.attachGranted = r.Counter("broker_attach_granted_total", "SAP auth requests granted")
	mtr.attachDenied = r.Counter("broker_attach_denied_total", "SAP auth requests denied by policy or crypto")
	mtr.reports = r.Counter("broker_reports_ingested_total", "sealed billing reports accepted")
	mtr.mismatches = r.Counter("broker_report_mismatches_total", "billing discrepancy incidents recorded")
	mtr.replays = r.Counter("broker_report_replays_total", "replayed/stale billing reports rejected")
	mtr.admissionRateShed = r.Counter("broker_admission_rate_shed_total", "attaches shed by the token-bucket rate gate")
	mtr.admissionQueueShed = r.Counter("broker_admission_queue_shed_total", "attaches shed by the queue-depth gate")
	mtr.receiptsSigned = r.Counter("broker_receipts_signed_total", "receipts signed for bTelcos' MAC-mode grants")
	mtr.reportsMACd = r.Counter("broker_reports_macd_total", "billing reports ingested on a MAC rather than a signature")
	mtr.checkpointsVerified = r.Counter("broker_checkpoints_verified_total", "signed report checkpoints verified and kept")
	mtr.checkpointsRefused = r.Counter("broker_checkpoints_refused_total", "report checkpoints refused (bad signature, replayed, or leaving out an ingested report)")
}
