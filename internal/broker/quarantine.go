package broker

import (
	"fmt"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/qos"
)

// Quarantine closes the trust loop the paper's billing section opens:
// reputation computed from verified evidence (billing mismatches,
// replayed reports, UE watchdog attestations) feeds back into live
// admission decisions. A bTelco whose score falls below EnterBelow is
// blocked outright for a probation window; after the window it re-enters
// service in a demoted "trial" tier (throttled QoS) where honest behavior
// can rebuild its score past ExitAbove — and fresh misbehavior re-blocks
// it with a doubled window.
type QuarantineConfig struct {
	// EnterBelow is the reputation score below which a bTelco is
	// quarantined (default 0.7).
	EnterBelow float64
	// ExitAbove is the score a bTelco on trial must rebuild to exit
	// quarantine entirely (default 0.9).
	ExitAbove float64
	// Probation is the hard-block window length for a first offense;
	// it doubles with every re-entry, up to 16× (default 30s).
	Probation time.Duration
}

// trialQoS is the demoted selection offered during the trial phase: a
// best-effort tier at 1 Mbps.
var trialQoS = qos.Params{QCI: 9, DLAmbrBps: 1_000_000, ULAmbrBps: 1_000_000}

func (c QuarantineConfig) defaults() QuarantineConfig {
	if c.EnterBelow == 0 {
		c.EnterBelow = 0.7
	}
	if c.ExitAbove == 0 {
		c.ExitAbove = 0.9
	}
	if c.Probation == 0 {
		c.Probation = 30 * time.Second
	}
	return c
}

// QuarantineEntry is the live quarantine state for one bTelco.
type QuarantineEntry struct {
	Since   time.Duration // when the bTelco (last) entered quarantine
	Until   time.Duration // end of the hard-block window; trial afterwards
	Strikes int           // quarantine entries so far (doubles the window)
}

// EnableQuarantine arms the dynamic quarantine with the given config and
// clock (virtual time in the simulator, nil for a zero clock). Must be
// called before traffic; the feature is off until enabled.
func (b *Brokerd) EnableQuarantine(cfg QuarantineConfig, clock func() time.Duration) {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cfg = cfg.defaults()
	b.quarCfg = &cfg
	b.quarClock = clock
	// Create-only-when-nil: a Restore that ran before enabling must keep
	// its quarantine entries.
	if b.quar == nil {
		b.quar = make(map[string]*QuarantineEntry)
	}
}

// SetQuarantineNotify installs a callback invoked on every quarantine
// enter (entered=true) and full exit (entered=false), with the score that
// triggered the transition. The callback runs with the broker's lock held
// and must not call back into the broker.
func (b *Brokerd) SetQuarantineNotify(fn func(idT string, entered bool, score float64)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.quarNotify = fn
}

// Quarantined reports whether a bTelco is currently hard-blocked.
func (b *Brokerd) Quarantined(idT string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.quar[idT]
	return e != nil && b.quarClock != nil && b.quarClock() < e.Until
}

// QuarantineInfo returns the quarantine entry for a bTelco, if any.
func (b *Brokerd) QuarantineInfo(idT string) (QuarantineEntry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.quar[idT]; e != nil {
		return *e, true
	}
	return QuarantineEntry{}, false
}

// Evidence folds one piece of verified evidence against a bTelco into its
// reputation (billing.Verifier.Evidence) — a UE's no-goodput watchdog
// attestation, say, or a windowed SLO crossing into breach — and reviews
// the bTelco against the quarantine thresholds at once. Every kind but
// billing.QoSEvidence counts as fresh misbehaviour for a trial-phase
// re-block. It returns the bTelco's resulting score.
func (b *Brokerd) Evidence(idT string, kind billing.EvidenceKind, degree float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.verifier.Evidence(idT, kind, degree)
	b.reviewTelcoLocked(idT, kind != billing.QoSEvidence)
	return b.verifier.TelcoScore(idT)
}

// quarantineLocked is the quarantine verdict on one bTelco's admission:
// an error while it is hard-blocked, trial once its window has run out but
// its record stands (authorizeLocked then selects trialQoS). Mutex held by
// caller.
func (b *Brokerd) quarantineLocked(idT string) (trial bool, err error) {
	if b.quarCfg == nil {
		return false, nil
	}
	e := b.quar[idT]
	if e == nil {
		return false, nil
	}
	if b.quarClock() < e.Until {
		return false, fmt.Errorf("bTelco %s quarantined (score %.2f, strike %d)",
			idT, b.verifier.TelcoScore(idT), e.Strikes)
	}
	return true, nil
}

// reviewTelcoLocked re-evaluates one bTelco against the quarantine
// thresholds after its reputation changed. misbehaved says whether the
// triggering event was fresh evidence (any kind but QoS) rather than an
// honest pass — a trial-phase bTelco re-blocks only on fresh
// evidence, since its score starts the trial still below the entry
// threshold by construction. Mutex held by caller.
func (b *Brokerd) reviewTelcoLocked(idT string, misbehaved bool) {
	if b.quarCfg == nil {
		return
	}
	score := b.verifier.TelcoScore(idT)
	now := b.quarClock()
	e := b.quar[idT]
	switch {
	case e == nil:
		if score < b.quarCfg.EnterBelow {
			b.quar[idT] = &QuarantineEntry{Since: now, Until: now + b.quarCfg.Probation, Strikes: 1}
			if b.quarNotify != nil {
				b.quarNotify(idT, true, score)
			}
		}
	case now >= e.Until:
		// Trial phase: fresh misbehavior re-blocks with a doubled
		// window; a rebuilt score clears the record.
		if misbehaved && score < b.quarCfg.EnterBelow {
			// Doubled per strike up to 16×; shifting further would
			// overflow into a window that ends before now.
			window := b.quarCfg.Probation << min(e.Strikes, 4)
			e.Since, e.Until, e.Strikes = now, now+window, e.Strikes+1
			if b.quarNotify != nil {
				b.quarNotify(idT, true, score)
			}
		} else if score >= b.quarCfg.ExitAbove {
			delete(b.quar, idT)
			if b.quarNotify != nil {
				b.quarNotify(idT, false, score)
			}
		}
	}
}
