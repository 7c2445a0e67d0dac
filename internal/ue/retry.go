package ue

import (
	"errors"
	"math/rand"
	"time"

	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// This file is the attach-path failure recovery of the availability story:
// "a user simply detaches from one cell tower and independently attaches
// to a new tower" — which only holds if the attach itself survives a dying
// bTelco or a recovering broker. The retry state machine rotates through
// candidate bTelcos with jittered exponential backoff; a typed retry-after
// hint from a degraded broker is a wait at the same bTelco, not a move. The
// decision logic (AttachFSM) is pure: it owns no I/O and no clock, so each
// emulated world drives it on its own (the testbed schedules each Fail's
// delay as a sim event) around Device.AttachSAP or the same request path.

// baseBackoff is the delay after the first failure, doubling per attempt
// up to RetryPolicy.MaxBackoff.
const baseBackoff = 200 * time.Millisecond

// RetryPolicy tunes the attach state machine.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget across all candidate
	// bTelcos before the machine gives up (default 8).
	MaxAttempts int
	// MaxBackoff caps the doubling backoff (default 5 s).
	MaxBackoff time.Duration
	// JitterFrac randomizes each backoff by up to this fraction (0..1).
	// Jitter draws from the rng handed to the FSM, so a seeded source
	// replays exactly.
	JitterFrac float64
}

// WithDefaults fills zero fields.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	return p
}

// Backoff computes the jittered exponential delay after the attempt'th
// failure (1-based). rng may be nil for no jitter.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	p = p.WithDefaults()
	d := baseBackoff << (attempt - 1)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 - p.JitterFrac/2 + p.JitterFrac*rng.Float64()))
	}
	return d
}

// Budget is the worst-case total delay the policy can insert across a full
// attempt budget (sum of maximal backoffs) — the bound the failover
// experiment asserts recovery against.
func (p RetryPolicy) Budget() time.Duration {
	p = p.WithDefaults()
	var total time.Duration
	for a := 1; a < p.MaxAttempts; a++ {
		d := baseBackoff << (a - 1)
		if d > p.MaxBackoff || d <= 0 {
			d = p.MaxBackoff
		}
		total += time.Duration(float64(d) * (1 + p.JitterFrac/2))
	}
	return total
}

// AttachFSM is the retry/fallback decision machine. It owns no I/O: the
// caller performs an attach attempt against Candidate(), reports the
// outcome, and schedules the returned delay however its clock works.
type AttachFSM struct {
	pol        RetryPolicy
	rng        *rand.Rand
	candidates int
	attempt    int // failures so far
	cand       int
	fallbacks  int
	avoid      func(int) bool // candidates the rotation steers around
}

// NewAttachFSM builds a machine over `candidates` bTelcos (the serving one
// first). rng supplies jitter and may be nil.
func NewAttachFSM(pol RetryPolicy, candidates int, rng *rand.Rand) *AttachFSM {
	if candidates < 1 {
		candidates = 1
	}
	return &AttachFSM{pol: pol.WithDefaults(), rng: rng, candidates: candidates}
}

// Candidate returns the index of the bTelco to try next.
func (m *AttachFSM) Candidate() int { return m.cand }

// SetAvoid installs a live candidate filter — typically "the broker has
// quarantined this bTelco" — that the rotation steers around: Fail skips
// avoided candidates, and the current candidate moves off an avoided
// index immediately. When every candidate is avoided the filter is
// ignored (attaching through a quarantined cell beats no service — the
// broker still decides admission). A nil filter clears it.
func (m *AttachFSM) SetAvoid(avoid func(int) bool) {
	m.avoid = avoid
	m.cand = m.nextAllowed(m.cand)
}

// nextAllowed returns the first non-avoided candidate at or after start
// (cyclic), or start itself when the filter rejects everything.
func (m *AttachFSM) nextAllowed(start int) int {
	if m.avoid == nil {
		return start
	}
	i := start
	for n := 0; n < m.candidates; n++ {
		if !m.avoid(i) {
			return i
		}
		i = (i + 1) % m.candidates
	}
	return start
}

// Attempts reports how many failures the machine has absorbed.
func (m *AttachFSM) Attempts() int { return m.attempt }

// Fallbacks reports how many times the machine moved off candidate 0.
func (m *AttachFSM) Fallbacks() int { return m.fallbacks }

// Fail records a failed attempt and decides what happens next: wait
// `delay`, then retry against Candidate() — which rotates to the next
// bTelco, the fallback path for a serving bTelco that died mid-attach.
// A *wire.RetryAfterError (a shedding broker) is the exception, as in
// 3GPP's congestion back-off (T3346): the bTelco that relayed it is alive
// and every candidate reaches the same broker, so the candidate stays —
// unless the avoid filter now rejects it — and the delay is floored at the
// server's hint. giveUp reports budget exhaustion.
func (m *AttachFSM) Fail(err error) (delay time.Duration, giveUp bool) {
	m.attempt++
	var ra *wire.RetryAfterError
	shed := errors.As(err, &ra)
	if m.attempt >= m.pol.MaxAttempts {
		return 0, true
	}
	prev, next := m.cand, (m.cand+1)%m.candidates
	if shed {
		next = m.cand
	}
	m.cand = m.nextAllowed(next)
	if prev == 0 && m.cand != 0 {
		m.fallbacks++
	}
	delay = m.pol.Backoff(m.attempt, m.rng)
	if shed && ra.After > delay {
		delay = ra.After
	}
	return delay, false
}

// maxShelved bounds an AttachShelf; a full one is emptied (rebuilding is safe).
const maxShelved = 8

// AttachShelf keeps, per target bTelco, the attach request a shedding
// broker refused. A typed shed (*wire.RetryAfterError) is raised before the
// broker validates a request or records its nonce, so the next attempt at
// that bTelco — after a shed, the next attempt, since AttachFSM.Fail keeps
// the candidate — retransmits the identical bytes, as NAS does on T3410, and
// every broker check runs on them unchanged; any other outcome drops the
// request (DESIGN.md §2.4). A shed request that rode a ticket is abandoned
// instead when the UE attaches elsewhere (after a give-up, or off an avoided
// bTelco), and its ticket goes with the UE
// (sap.UEState.ReclaimTicket, DESIGN.md §2.8). The zero value is ready to
// use; the holder serializes access.
type AttachShelf struct {
	Resent  int // requests Take handed out for retransmission
	byTelco map[string]*sap.PendingAttach
}

// Take returns the attach to send to bTelco idT: the shelved one, removed
// so no overlapping attempt can send it too (resent), or else a new one.
// Every ticketed request shelved for another bTelco is dropped, never to be
// resent, and hands its ticket back to u if u holds none; a signed one
// stays shelved.
func (s *AttachShelf) Take(u *sap.UEState, idT string) (p *sap.PendingAttach, resent bool, err error) {
	for id, q := range s.byTelco {
		if id != idT && len(q.Req.Sig) == 0 {
			delete(s.byTelco, id)
			if u.ReclaimTicket(q) {
				mtr.reclaims.Add(1)
			}
		}
	}
	if p = s.byTelco[idT]; p != nil {
		delete(s.byTelco, idT)
		s.Resent++
		mtr.retransmits.Add(1)
		return p, true, nil
	}
	_, p, err = u.NewAttachRequest(idT)
	return p, false, err
}

// Settle records how the attempt that sent p ended: a typed shed shelves
// p for the next attempt at its bTelco, anything else leaves it dropped.
func (s *AttachShelf) Settle(p *sap.PendingAttach, err error) {
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		return
	}
	if s.byTelco == nil || len(s.byTelco) >= maxShelved {
		s.byTelco = make(map[string]*sap.PendingAttach)
	}
	s.byTelco[p.IDT] = p
}
