package ue

import "time"

// Watchdog is the UE-side no-goodput detector behind the paper's claim
// that users can attach through *untrusted* bTelcos: a bTelco can accept
// the attach, answer the control plane politely, and silently blackhole
// the data path — billing verification alone never sees it, because both
// counters agree that nothing was delivered. The watchdog watches the
// only signal the bTelco cannot forge, the UE's own delivered-byte
// counter, and trips after a configurable window with zero forward
// progress. The caller (the device's attach loop) turns a trip into
// evidence for the broker (Brokerd.Evidence with billing.WatchdogEvidence)
// and a re-attach away from the offending cell. Trips counts them; no
// registry counter does.
//
// The watchdog is pure state over an injected clock: the caller decides
// when to Observe (per timer tick in the simulator, per poll on real
// hardware), so the same logic drives both.
type Watchdog struct {
	// Window is how long delivered bytes may stall before a trip
	// (default 4s).
	Window time.Duration

	armed        bool
	lastBytes    uint64
	lastProgress time.Duration
	trips        int
}

// NewWatchdog builds a watchdog; window <= 0 selects the 4s default.
func NewWatchdog(window time.Duration) *Watchdog {
	if window <= 0 {
		window = 4 * time.Second
	}
	return &Watchdog{Window: window}
}

// Arm starts (or restarts) the watch at now with the current delivered
// counter — call it when an attach completes.
func (w *Watchdog) Arm(now time.Duration, delivered uint64) {
	w.armed = true
	w.lastBytes = delivered
	w.lastProgress = now
}

// Disarm stops the watch — call it on detach, when a stall is expected.
func (w *Watchdog) Disarm() { w.armed = false }

// Observe feeds the current delivered-byte counter at time now and
// reports whether the watchdog tripped: no forward progress for a full
// window. A trip disarms the watchdog (the caller re-arms after the
// re-attach), so one stall yields one piece of evidence.
func (w *Watchdog) Observe(now time.Duration, delivered uint64) bool {
	if !w.armed {
		return false
	}
	if delivered > w.lastBytes {
		w.lastBytes = delivered
		w.lastProgress = now
		return false
	}
	if now-w.lastProgress < w.Window {
		return false
	}
	w.armed = false
	w.trips++
	return true
}
