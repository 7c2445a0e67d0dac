package broker

import (
	"sync"

	"cellbricks/internal/billing"
	"cellbricks/internal/sap"
)

// Batcher queues broker control-plane work — full SAP handshakes,
// fast-path resumes, and billing reports — arriving within one sim-clock
// flush window and hands it to the broker transaction (transaction.go) at
// the window boundary, the SoftCell aggregation pattern applied to the
// brokered control plane. Callers enqueue at arrival and call Flush at
// window boundaries; Depth between the two is the backlog admission
// control keys off.
//
// Both modes share the one queue and flush schedule, so arrival order,
// admission depths, and decision order are identical; they differ only
// in the window the transaction sees:
//
//   - serial (the baseline): a window of one — each item is its own
//     transaction, exactly what the single-request handlers run.
//   - batch: the whole flush is one transaction — stateless stages in
//     parallel, ONE ordered commit under a single lock acquisition.
//
// For honest traffic the two modes produce byte-identical outcomes —
// the storm determinism gate pins this. A window larger than one
// diverges in two documented ways under adversarial load: (1) quarantine
// reviews are coalesced per window, so a score that dips below the entry
// threshold and recovers within one window quarantines serially but not
// batched; (2) the window is an atomicity boundary — a report or resume
// naming a session granted in the SAME flush is refused (the grant
// response has not even been delivered yet, so honest parties cannot
// produce one).
type Batcher struct {
	b      *Brokerd
	serial bool

	mu    sync.Mutex
	items []*txItem

	flushes uint64
	total   uint64
}

// BatchOutcome is the per-item result of a Flush, in enqueue order.
// Exactly one of Auth/Resume is set for attach items (nil plus Err for
// hard errors); report items carry the Mismatch verdict and ingest
// error, mirroring HandleReport.
type BatchOutcome struct {
	Auth     *sap.AuthResp
	Resume   *sap.ResumeResp
	Mismatch *billing.Mismatch
	Err      error
}

// NewBatcher builds a batcher over this broker. serial selects the
// baseline per-item execution strategy (for A/B runs and the
// determinism gate); false selects the pipelined transaction.
func (b *Brokerd) NewBatcher(serial bool) *Batcher {
	return &Batcher{b: b, serial: serial}
}

// EnqueueAuth queues a full SAP handshake for the next flush. The caller
// is responsible for admission (AdmitAttach with Depth()) — enqueued
// items are past the gate and always processed.
func (t *Batcher) EnqueueAuth(req *sap.AuthReqT) {
	t.enqueue(&txItem{kind: txAuth, auth: req})
}

// EnqueueResume queues a fast-path resume for the next flush.
func (t *Batcher) EnqueueResume(req *sap.ResumeReq) {
	t.enqueue(&txItem{kind: txResume, resume: req})
}

// EnqueueReport queues a sealed billing report for the next flush.
// Reports bypass admission by design.
func (t *Batcher) EnqueueReport(env *billing.SealedReport) {
	t.enqueue(&txItem{kind: txReport, report: env})
}

func (t *Batcher) enqueue(it *txItem) {
	t.mu.Lock()
	t.items = append(t.items, it)
	t.total++
	t.mu.Unlock()
	mtr.batchItems.Add(1)
}

// Depth reports the current backlog — the queue-depth signal for
// AdmitAttach.
func (t *Batcher) Depth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// Stats reports cumulative (flushes, items enqueued).
func (t *Batcher) Stats() (flushes, items uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushes, t.total
}

// Flush drains the queue and processes every item, returning outcomes in
// enqueue order.
func (t *Batcher) Flush() []BatchOutcome {
	t.mu.Lock()
	items := t.items
	t.items = nil
	t.flushes++
	t.mu.Unlock()
	mtr.batchFlushes.Add(1)
	if len(items) == 0 {
		return nil
	}
	if t.serial {
		for _, it := range items {
			t.b.transact(it)
		}
	} else {
		t.b.transactWindow(items)
	}
	out := make([]BatchOutcome, len(items))
	for i, it := range items {
		out[i] = it.out
	}
	return out
}
