package broker

import (
	"fmt"
	"time"

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
	// it doubles with every re-entry (default 30s).
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

// ReportWatchdog ingests UE-side no-goodput watchdog evidence against a
// bTelco: the UE attached, was accepted, and measured no forward progress
// for its watchdog window. This is treated as attested misconduct
// (accept-then-blackhole), penalized at full weight, and immediately
// re-evaluated against the quarantine thresholds. It returns the bTelco's
// resulting score.
func (b *Brokerd) ReportWatchdog(idT string, degree float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	mtr.watchdogEvidence.Add(1)
	b.verifier.PenalizeMisconduct(idT, degree)
	b.reviewTelcoLocked(idT, true)
	return b.verifier.TelcoScore(idT)
}

// ReportSLOBreach ingests an SLO breach-enter signal against a bTelco: a
// windowed objective the broker (or its serving infrastructure) evaluates
// over verified evidence — e.g. per-cell overbilling ratio — crossed into
// breach. Like watchdog evidence it is penalized and immediately reviewed
// against the quarantine thresholds; unlike raw mismatch evidence it is a
// *rate* signal, so callers scale degree by how deep the breach is. It
// returns the bTelco's resulting score.
func (b *Brokerd) ReportSLOBreach(idT string, degree float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	mtr.sloEvidence.Add(1)
	b.verifier.PenalizeMisconduct(idT, degree)
	b.reviewTelcoLocked(idT, true)
	return b.verifier.TelcoScore(idT)
}

// QuarantineRule is the quarantine decision as a live policy.Rule: it
// vetoes hard-blocked bTelcos and demotes trial-phase bTelcos to the
// configured TrialQoS. The broker's built-in authorize path always runs
// it; custom SetPolicy chains should include it explicitly. Like every
// Rule it executes under the broker's lock — it must not be called from
// outside an authorization.
func (b *Brokerd) QuarantineRule() Rule {
	return func(d *Decision) error {
		if b.quarCfg == nil {
			return nil
		}
		e := b.quar[d.IDT]
		if e == nil {
			return nil
		}
		if b.quarClock() < e.Until {
			mtr.quarDenied.Add(1)
			return fmt.Errorf("bTelco %s quarantined (score %.2f, strike %d)",
				d.IDT, b.verifier.TelcoScore(d.IDT), e.Strikes)
		}
		d.QoS = trialQoS
		return nil
	}
}

// reviewTelcoLocked re-evaluates one bTelco against the quarantine
// thresholds after its reputation changed. misbehaved says whether the
// triggering event was fresh evidence (mismatch, replay, watchdog) rather
// than an honest pass — a trial-phase bTelco re-blocks only on fresh
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
			window := b.quarCfg.Probation
			b.quar[idT] = &QuarantineEntry{Since: now, Until: now + window, Strikes: 1}
			mtr.quarEnter.Add(1)
			if b.quarNotify != nil {
				b.quarNotify(idT, true, score)
			}
		}
	case now >= e.Until:
		// Trial phase: fresh misbehavior re-blocks with a doubled
		// window; a rebuilt score clears the record.
		if misbehaved && score < b.quarCfg.EnterBelow {
			window := b.quarCfg.Probation << e.Strikes
			if max := 16 * b.quarCfg.Probation; window > max {
				window = max
			}
			e.Since, e.Until, e.Strikes = now, now+window, e.Strikes+1
			mtr.quarEnter.Add(1)
			if b.quarNotify != nil {
				b.quarNotify(idT, true, score)
			}
		} else if score >= b.quarCfg.ExitAbove {
			delete(b.quar, idT)
			mtr.quarExit.Add(1)
			if b.quarNotify != nil {
				b.quarNotify(idT, false, score)
			}
		}
	}
}
