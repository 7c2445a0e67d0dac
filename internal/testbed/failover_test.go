package testbed

import (
	"testing"
	"time"

	"cellbricks/internal/chaos"
)

// TestFailoverDeterministicReplay is the acceptance property of the chaos
// harness: same (seed, spec, config) → byte-identical summaries, every
// fault recovered.
func TestFailoverDeterministicReplay(t *testing.T) {
	spec, err := chaos.ParseSpec("flap=1x3s,pause=1x800ms,broker=1x10s,crash=1x6s,corrupt=1x5s@0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FailoverConfig{Seed: 7, Duration: 75 * time.Second, Spec: spec}
	r1, err := RunFailover(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := RunFailover(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	s1, s2 := r1.Render(), r2.Render()
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", s1, s2)
	}
	if r1.Unrecovered != 0 {
		t.Fatalf("unrecovered faults:\n%s", s1)
	}
	other, err := RunFailover(FailoverConfig{Seed: 8, Duration: 75 * time.Second, Spec: spec})
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if other.Render() == s1 {
		t.Fatalf("different seeds produced identical summaries")
	}
}

// TestFailoverBrokerCrashRecovery pins the broker availability story: the
// crash destroys in-memory state, the restart restores the last snapshot
// and sheds load, and the UE's retry machine re-attaches within the
// configured backoff budget.
func TestFailoverBrokerCrashRecovery(t *testing.T) {
	spec, err := chaos.ParseSpec("broker=1x10s")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FailoverConfig{Seed: 11, Duration: 60 * time.Second, Spec: spec}
	res, err := RunFailover(cfg)
	if err != nil {
		t.Fatalf("RunFailover: %v", err)
	}
	if res.BrokerRestores != 1 {
		t.Fatalf("broker restores = %d, want 1\n%s", res.BrokerRestores, res.Render())
	}
	if res.Snapshots == 0 {
		t.Fatalf("no snapshots taken")
	}
	var out *FaultOutcome
	for i := range res.Outcomes {
		if res.Outcomes[i].Kind == chaos.KindBroker {
			out = &res.Outcomes[i]
		}
	}
	if out == nil {
		t.Fatalf("no broker fault in outcomes:\n%s", res.Render())
	}
	if !out.Recovered {
		t.Fatalf("broker fault unrecovered:\n%s", res.Render())
	}
	// The outage window provably contains an attach storm (forced
	// handover at +1 s), so recovery is bounded by outage + shed window +
	// the retry policy's worst-case backoff budget.
	bound := out.Dur + time.Second + failoverShedFor + failoverRetry.Budget()
	if out.Recovery > bound {
		t.Fatalf("recovery %v exceeds budget %v\n%s", out.Recovery, bound, res.Render())
	}
	if res.AttachRetries == 0 {
		t.Fatalf("expected attach retries during the outage:\n%s", res.Render())
	}
}

// TestFailoverTelcoFallback: killing the serving bTelco must push the UE
// to the secondary within a couple of backoffs, not a full outage.
func TestFailoverTelcoFallback(t *testing.T) {
	spec, err := chaos.ParseSpec("crash=1x8s")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFailover(FailoverConfig{Seed: 3, Duration: 60 * time.Second, Spec: spec})
	if err != nil {
		t.Fatalf("RunFailover: %v", err)
	}
	if res.Fallbacks == 0 {
		t.Fatalf("expected a bTelco fallback:\n%s", res.Render())
	}
	for _, o := range res.Outcomes {
		if o.Kind == chaos.KindCrash {
			if !o.Recovered {
				t.Fatalf("crash fault unrecovered:\n%s", res.Render())
			}
			// Fallback attach should land well before the crashed bTelco
			// returns.
			if o.Recovery >= o.Dur {
				t.Fatalf("recovery %v not faster than bTelco restart %v\n%s", o.Recovery, o.Dur, res.Render())
			}
		}
	}
}
