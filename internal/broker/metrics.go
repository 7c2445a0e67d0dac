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
	attachShed    *obs.Counter
	reports       *obs.Counter
	mismatches    *obs.Counter
	snapshots     *obs.Counter
	restores      *obs.Counter

	replays          *obs.Counter
	watchdogEvidence *obs.Counter
	sloEvidence      *obs.Counter
	quarEnter        *obs.Counter
	quarExit         *obs.Counter
	quarDenied       *obs.Counter

	admissionRateShed  *obs.Counter
	admissionQueueShed *obs.Counter
	batchFlushes       *obs.Counter
	batchItems         *obs.Counter
	receiptsSigned     *obs.Counter
	receiptsRefused    *obs.Counter

	reportsMACd         *obs.Counter
	checkpointsVerified *obs.Counter
	checkpointsRefused  *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.attachGranted = r.Counter("broker_attach_granted_total", "SAP auth requests granted")
	mtr.attachDenied = r.Counter("broker_attach_denied_total", "SAP auth requests denied by policy or crypto")
	mtr.attachShed = r.Counter("broker_attach_shed_total", "SAP auth requests shed while degraded")
	mtr.reports = r.Counter("broker_reports_ingested_total", "sealed billing reports accepted")
	mtr.mismatches = r.Counter("broker_report_mismatches_total", "billing discrepancy incidents recorded")
	mtr.snapshots = r.Counter("broker_snapshots_total", "durable-state snapshots taken")
	mtr.restores = r.Counter("broker_restores_total", "snapshots restored into a broker")
	mtr.replays = r.Counter("broker_report_replays_total", "replayed/stale billing reports rejected")
	mtr.watchdogEvidence = r.Counter("broker_watchdog_evidence_total", "UE no-goodput watchdog attestations ingested")
	mtr.sloEvidence = r.Counter("broker_slo_evidence_total", "SLO breach-enter signals ingested as misconduct evidence")
	mtr.quarEnter = r.Counter("broker_quarantine_enter_total", "bTelco quarantine entries")
	mtr.quarExit = r.Counter("broker_quarantine_exit_total", "bTelco quarantine full exits")
	mtr.quarDenied = r.Counter("broker_quarantine_denied_total", "attaches denied because the bTelco is quarantined")
	mtr.admissionRateShed = r.Counter("broker_admission_rate_shed_total", "attaches shed by the token-bucket rate gate")
	mtr.admissionQueueShed = r.Counter("broker_admission_queue_shed_total", "attaches shed by the queue-depth gate")
	mtr.batchFlushes = r.Counter("broker_batch_flushes_total", "batcher flush windows processed")
	mtr.batchItems = r.Counter("broker_batch_items_total", "control-plane items enqueued into the batcher")
	mtr.receiptsSigned = r.Counter("broker_receipts_signed_total", "receipts signed for bTelcos' MAC-mode grants")
	mtr.receiptsRefused = r.Counter("broker_receipts_refused_total", "receipt requests refused (authentication, or a disowned session)")
	mtr.reportsMACd = r.Counter("broker_reports_macd_total", "billing reports ingested on a MAC rather than a signature")
	mtr.checkpointsVerified = r.Counter("broker_checkpoints_verified_total", "signed report checkpoints verified and kept")
	mtr.checkpointsRefused = r.Counter("broker_checkpoints_refused_total", "report checkpoints refused (bad signature, replayed, or leaving out an ingested report)")
}
