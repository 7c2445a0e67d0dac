package testbed

import (
	"math"
	"testing"
	"time"
)

func TestSLORatioMinAvailability(t *testing.T) {
	tr := newSLOWindow("availability", ratioMin, 0.9, 10*time.Second, 10)
	var crossings []bool
	tick := func(at time.Duration) (value, margin, burn float64) {
		value, margin, burn, crossed := tr.tick(at)
		if crossed {
			crossings = append(crossings, tr.breached)
		}
		return value, margin, burn
	}

	// 10s of full availability: healthy, margin 0.1.
	var value, margin, burn float64
	for s := 1; s <= 10; s++ {
		tr.observeRatio(time.Duration(s)*time.Second, 1, 1)
		value, margin, _ = tick(time.Duration(s) * time.Second)
	}
	if value != 1 || tr.breached || math.Abs(margin-0.1) > 1e-9 {
		t.Fatalf("healthy: value %v margin %v breached %v", value, margin, tr.breached)
	}
	if tr.Evals != 10 || math.Abs(tr.WorstMargin-0.1) > 1e-9 {
		t.Fatalf("after 10 healthy ticks: %+v", tr.ByzSLO)
	}
	if len(crossings) != 0 {
		t.Fatalf("no crossing expected while healthy, got %v", crossings)
	}

	// 5s of total outage: window value drops to 0.5 < 0.9 — breach enter.
	for s := 11; s <= 15; s++ {
		tr.observeRatio(time.Duration(s)*time.Second, 0, 1)
		value, _, burn = tick(time.Duration(s) * time.Second)
	}
	if !tr.breached || value != 0.5 {
		t.Fatalf("breach: value %v breached %v", value, tr.breached)
	}
	if burn <= 1 {
		t.Fatalf("burn during breach must exceed 1, got %v", burn)
	}
	if len(crossings) != 1 || !crossings[0] {
		t.Fatalf("want one breach-enter crossing, got %v", crossings)
	}

	// Recovery: healthy samples push the outage out of the window.
	for s := 16; s <= 25; s++ {
		tr.observeRatio(time.Duration(s)*time.Second, 1, 1)
		value, _, _ = tick(time.Duration(s) * time.Second)
	}
	if tr.breached || value != 1 {
		t.Fatalf("post-recovery: value %v breached %v", value, tr.breached)
	}
	if len(crossings) != 2 || crossings[1] {
		t.Fatalf("want breach-exit crossing, got %v", crossings)
	}

	rep := tr.ByzSLO
	if rep.Breaches != 1 || rep.WorstMargin >= 0 || rep.MaxBurn <= 1 || rep.Evals != 25 {
		t.Fatalf("bad summary: %+v", rep)
	}
	if rep.Name != "availability" || rep.Kind != "ratio-min" {
		t.Fatalf("bad summary identity: %+v", rep)
	}
}

// TestSLOFirstEvalWorstMargin: the first evaluation seeds the worst margin,
// even a positive one, so an always-healthy window reports its real margin.
func TestSLOFirstEvalWorstMargin(t *testing.T) {
	minW := newSLOWindow("b", ratioMin, 0.5, time.Second, 1)
	maxW := newSLOWindow("a", ratioMax, 2, time.Second, 1)
	minW.tick(time.Second)
	maxW.tick(time.Second)
	if minW.Evals != 1 || minW.WorstMargin != 0.5 {
		t.Fatalf("empty ratio-min window: %+v", minW.ByzSLO)
	}
	if maxW.Evals != 1 || maxW.WorstMargin != 2 {
		t.Fatalf("empty ratio-max window: %+v", maxW.ByzSLO)
	}
}

func TestSLORatioMaxOverbilling(t *testing.T) {
	tr := newSLOWindow("overbilling", ratioMax, 1.05, time.Minute, 6)
	// Honest cycle: claimed == true bytes, ratio 1.0 <= 1.05.
	tr.observeRatio(time.Second, 1000, 1000)
	if _, margin, _, _ := tr.tick(time.Second); tr.breached || math.Abs(margin-0.05) > 1e-9 {
		t.Fatalf("honest: margin %v breached %v", margin, tr.breached)
	}
	// Overbilled cycle: 1500 claimed for 1000 true, window ratio 1.25.
	tr.observeRatio(2*time.Second, 1500, 1000)
	if value, _, _, _ := tr.tick(2 * time.Second); !tr.breached || math.Abs(value-1.25) > 1e-9 {
		t.Fatalf("overbilled: value %v breached %v", value, tr.breached)
	}
	// Empty window (value 0) is healthy for a max-bound.
	if value, _, _, _ := tr.tick(10 * time.Minute); tr.breached || value != 0 {
		t.Fatalf("empty window: value %v breached %v", value, tr.breached)
	}
}

func TestSLOLatencyP99(t *testing.T) {
	tr := newSLOWindow("attach-p99", latencyP99, float64(50*time.Millisecond), 10*time.Second, 10)
	// 99 fast samples, 1 slow: p99 lands in the slow sample's bucket.
	for i := 0; i < 99; i++ {
		tr.observeDuration(time.Second, 30*time.Millisecond)
	}
	if tr.tick(time.Second); tr.breached {
		t.Fatal("fast-only window must be healthy")
	}
	// 100 samples: the 99th of 100 sorted samples is fast (30ms -> 50ms
	// bound), and p99 == target does not breach.
	tr.observeDuration(time.Second, 90*time.Millisecond)
	if value, _, _, _ := tr.tick(time.Second); value != (50*time.Millisecond).Seconds() || tr.breached {
		t.Fatalf("p99 = %v (breached %v), want 0.05 healthy", value, tr.breached)
	}
	// Two more slow samples drag rank 99 into the 100ms bucket.
	tr.observeDuration(time.Second, 90*time.Millisecond)
	tr.observeDuration(time.Second, 90*time.Millisecond)
	value, _, burn, _ := tr.tick(time.Second)
	if value != (100*time.Millisecond).Seconds() || !tr.breached {
		t.Fatalf("slow p99 = %v (breached %v)", value, tr.breached)
	}
	if burn != 2 {
		t.Fatalf("burn = %v, want 2 (100ms / 50ms)", burn)
	}
}

// TestSLOP99InfBucketSentinel pins the overflow rule: samples beyond the
// largest finite bound report twice that bound.
func TestSLOP99InfBucketSentinel(t *testing.T) {
	tr := newSLOWindow("", latencyP99, float64(time.Second), time.Minute, 12)
	tr.observeDuration(time.Second, time.Hour)
	want := (2 * latencyBounds[len(latencyBounds)-1]).Seconds()
	if value, _, _, _ := tr.tick(time.Second); value != want {
		t.Fatalf("overflow p99 = %v, want %v", value, want)
	}
}

// TestSLOWindowExpiry: a stale bucket exactly one window old must not leak
// into the evaluation, and old epochs are reset when their slot is reused.
func TestSLOWindowExpiry(t *testing.T) {
	tr := newSLOWindow("", ratioMin, 0.9, 10*time.Second, 10)
	tr.observeRatio(time.Second, 0, 1) // an outage sample
	if tr.tick(time.Second); !tr.breached {
		t.Fatal("fresh outage must breach")
	}
	// Exactly one window later the sample is out of scope (empty = healthy).
	if value, _, _, _ := tr.tick(11 * time.Second); tr.breached || value != 1 {
		t.Fatalf("expired outage leaked into window: value %v", value)
	}
	// Writing into the same ring slot one full window later must reset it.
	tr.observeRatio(11*time.Second, 1, 1)
	if value, _, _, _ := tr.tick(11 * time.Second); value != 1 {
		t.Fatalf("slot reuse kept stale counts: value %v", value)
	}
}

// TestSLOObserveSteadyStateAllocs: observing and evaluating must not
// allocate once the window exists — both run inside the simulator's loop.
func TestSLOObserveSteadyStateAllocs(t *testing.T) {
	ratio := newSLOWindow("", ratioMin, 0.9, 10*time.Second, 12)
	lat := newSLOWindow("", latencyP99, float64(time.Second), 10*time.Second, 12)
	var at time.Duration
	allocs := testing.AllocsPerRun(1000, func() {
		at += 10 * time.Millisecond
		ratio.observeRatio(at, 1, 1)
		lat.observeDuration(at, 5*time.Millisecond)
		ratio.tick(at)
		lat.tick(at)
	})
	if allocs != 0 {
		t.Fatalf("observe/tick allocates %v per run, want 0", allocs)
	}
}
