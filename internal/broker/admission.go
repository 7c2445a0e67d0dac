package broker

import (
	"time"

	"cellbricks/internal/wire"
)

// Admission control: a token-bucket + queue-depth load shedder that
// refuses attach work a queue in front of the broker cannot absorb *before*
// any crypto runs, answering with the same typed retry-after hint the
// degraded-mode (ShedLoad) path already carries end-to-end through NAS —
// ue.AttachFSM knows how to floor its backoff at the hint. It stands beside
// the broker, not in it: the caller that owns the queue charges each attach
// with the queue's depth before enqueueing it, and the broker's handlers
// never consult it. Report ingestion is never shed: reports are cheap,
// idempotent per (session, seq), and dropping them would open a billing gap.

// AdmissionConfig tunes the shedder.
type AdmissionConfig struct {
	// Rate is the sustained attach admissions per second the bucket
	// refills at (0 disables the rate gate).
	Rate float64
	// Burst is the bucket capacity — how far above Rate a short burst may
	// go before shedding starts.
	Burst float64
	// MaxQueue sheds when the caller-observed backlog reaches this depth
	// (0 disables the queue gate).
	MaxQueue int
	// RetryAfter is the base backoff hint; queue-depth sheds double it
	// (the queue signal means the broker is further behind than the rate
	// signal alone implies). Zero defaults to one second.
	RetryAfter time.Duration
}

// Admission is the live shedder. It is not safe for concurrent use: its
// owner charges it from the one place that enqueues attaches.
type Admission struct {
	cfg   AdmissionConfig
	clock func() time.Duration

	tokens     float64
	last       time.Duration
	admitted   uint64
	rateSheds  uint64
	queueSheds uint64
}

// NewAdmission builds a shedder whose bucket starts full. clock supplies
// monotonic time for bucket refill — virtual time in the simulator, so
// shedding is deterministic.
func NewAdmission(cfg AdmissionConfig, clock func() time.Duration) *Admission {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &Admission{cfg: cfg, clock: clock, tokens: cfg.Burst, last: clock()}
}

// Admit charges one attach against the shedder. depth is the backlog of
// the queue the attach would join. It returns nil when admitted, else a
// typed *wire.RetryAfterError carrying the backoff hint.
func (a *Admission) Admit(depth int) error {
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

// Stats reports cumulative (admitted, rateSheds, queueSheds).
func (a *Admission) Stats() (admitted, rateSheds, queueSheds uint64) {
	return a.admitted, a.rateSheds, a.queueSheds
}
