package broker

import (
	"sync"
	"time"

	"cellbricks/internal/wire"
)

// Admission control: a token-bucket + queue-depth load shedder that
// refuses attach work the broker cannot absorb *before* any crypto runs,
// answering with the same typed retry-after hint the degraded-mode
// (ShedLoad) path already carries end-to-end through NAS — ue.AttachFSM
// knows how to floor its backoff at the hint. Report ingestion is never
// shed: reports are cheap, idempotent per (session, seq), and dropping
// them would open a billing gap.

// AdmissionConfig tunes the shedder.
type AdmissionConfig struct {
	// Rate is the sustained attach admissions per second the bucket
	// refills at (0 disables the rate gate).
	Rate float64
	// Burst is the bucket capacity — how far above Rate a short burst may
	// go before shedding starts.
	Burst float64
	// MaxQueue sheds when the caller-observed backlog (e.g.
	// Batcher.Depth()) reaches this depth (0 disables the queue gate).
	MaxQueue int
	// RetryAfter is the base backoff hint; queue-depth sheds double it
	// (the queue signal means the broker is further behind than the rate
	// signal alone implies). Zero defaults to one second.
	RetryAfter time.Duration
}

// admissionState is the live shedder. It has its own mutex so admission
// never contends with the broker's decision lock.
type admissionState struct {
	cfg   AdmissionConfig
	clock func() time.Duration

	mu         sync.Mutex
	tokens     float64
	last       time.Duration
	admitted   uint64
	rateSheds  uint64
	queueSheds uint64
}

// EnableAdmission arms the shedder. clock supplies monotonic time for
// bucket refill — virtual time in the simulator so shedding is
// deterministic; nil uses a wall-clock stopwatch. The bucket starts
// full.
func (b *Brokerd) EnableAdmission(cfg AdmissionConfig, clock func() time.Duration) {
	if clock == nil {
		start := time.Now()
		clock = func() time.Duration { return time.Since(start) }
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	a := &admissionState{cfg: cfg, clock: clock, tokens: cfg.Burst}
	a.last = clock()
	b.mu.Lock()
	b.adm = a
	b.mu.Unlock()
}

// AdmitAttach charges one attach against the shedder. queueDepth is the caller-observed backlog — pass
// Batcher.Depth() when enqueueing, 0 when calling the broker directly.
// Returns nil when admission is disabled or granted, else a typed
// *wire.RetryAfterError carrying the backoff hint.
func (b *Brokerd) AdmitAttach(queueDepth int) error {
	b.mu.Lock()
	a := b.adm
	b.mu.Unlock()
	if a == nil {
		return nil
	}
	return a.admit(queueDepth)
}

// AdmissionStats reports cumulative (admitted, rateSheds, queueSheds).
func (b *Brokerd) AdmissionStats() (admitted, rateSheds, queueSheds uint64) {
	b.mu.Lock()
	a := b.adm
	b.mu.Unlock()
	if a == nil {
		return 0, 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.rateSheds, a.queueSheds
}

func (a *admissionState) admit(depth int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock()
	if a.cfg.Rate > 0 {
		a.tokens += a.cfg.Rate * (now - a.last).Seconds()
		if a.tokens > a.cfg.Burst {
			a.tokens = a.cfg.Burst
		}
	}
	a.last = now
	// Queue depth is the stronger signal — check it first so a melting
	// broker hands out the longer hint even when tokens remain.
	if a.cfg.MaxQueue > 0 && depth >= a.cfg.MaxQueue {
		a.queueSheds++
		mtr.admissionQueueShed.Add(1)
		return &wire.RetryAfterError{After: 2 * a.cfg.RetryAfter}
	}
	if a.cfg.Rate > 0 {
		if a.tokens < 1 {
			a.rateSheds++
			mtr.admissionRateShed.Add(1)
			return &wire.RetryAfterError{After: a.cfg.RetryAfter}
		}
		a.tokens--
	}
	a.admitted++
	return nil
}
