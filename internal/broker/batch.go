package broker

import (
	"sync"

	"cellbricks/internal/billing"
	"cellbricks/internal/sap"
)

// Batcher is a queue in front of the broker transaction (transaction.go):
// SAP handshakes and billing reports are enqueued
// at arrival and decided at the caller's flush instant — the storm's
// sim-clock window — one transact per item, in arrival order. It adds no
// second way to decide: an item flushed here gets exactly the outcome the
// single-request handler would give it at that instant. What it provides
// is the backlog between flushes, Depth, which admission control keys off.
type Batcher struct {
	b *Brokerd

	mu    sync.Mutex
	items []txItem

	flushes uint64
	total   uint64
}

// BatchOutcome is the per-item result of a Flush, in enqueue order. An
// attach item carries its response (nil plus Err for hard errors), as
// HandleAuthRequest returns it; a report item the Mismatch verdict and
// ingest error, as HandleReport does.
type BatchOutcome struct {
	Auth     *sap.AuthResp
	Mismatch *billing.Mismatch
	Err      error
}

// NewBatcher builds an empty queue over this broker.
func (b *Brokerd) NewBatcher() *Batcher { return &Batcher{b: b} }

// EnqueueAuth queues a SAP handshake for the next flush. The caller
// is responsible for admission (AdmitAttach with Depth()) — enqueued
// items are past the gate and always processed.
func (t *Batcher) EnqueueAuth(req *sap.AuthReqT) {
	t.enqueue(txItem{kind: txAuth, auth: req})
}

// EnqueueReport queues a sealed billing report for the next flush.
// Reports bypass admission by design.
func (t *Batcher) EnqueueReport(env *billing.SealedReport) {
	t.enqueue(txItem{kind: txReport, report: env})
}

func (t *Batcher) enqueue(it txItem) {
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

// Flush drains the queue and transacts every item in enqueue order,
// returning the outcomes in that order.
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
	out := make([]BatchOutcome, len(items))
	for i := range items {
		t.b.transact(&items[i])
		out[i] = items[i].out
	}
	return out
}
