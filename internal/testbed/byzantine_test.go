package testbed

import (
	"crypto/sha256"
	"math"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/chaos"
	"cellbricks/internal/obs"
)

func byzTestConfig(seed int64) ByzantineConfig {
	return ByzantineConfig{
		Seed:          seed,
		Duration:      30 * time.Second,
		Groups:        4,
		CellsPerGroup: 2,
		UEsPerGroup:   3,
		CellBps:       8e6,
	}
}

// TestByzantineInvariantsAndDeterminism is the soak's core contract: with
// a quarter of the cells Byzantine, every invariant holds at the horizon,
// and the rendered output is byte-identical across a re-run with the same
// seed and across shard counts (1 vs 4).
func TestByzantineInvariantsAndDeterminism(t *testing.T) {
	res, err := RunByzantine(byzTestConfig(7))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := res.Render()
	if res.Adversaries == 0 {
		t.Fatalf("no adversaries seeded:\n%s", out)
	}
	if res.Violations != 0 {
		t.Fatalf("invariant violations:\n%s", out)
	}
	if res.WatchdogTrips == 0 && res.Kicks == 0 {
		t.Fatalf("closed loop never engaged (no trips, no kicks):\n%s", out)
	}
	if len(res.Quarantine) == 0 {
		t.Fatalf("no quarantine transitions recorded:\n%s", out)
	}

	rerun, err := RunByzantine(byzTestConfig(7))
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rerun.Render() != out {
		t.Fatalf("same-seed rerun diverged:\n--- first\n%s\n--- rerun\n%s", out, rerun.Render())
	}

	cfg := byzTestConfig(7)
	cfg.Shards = 4
	sharded, err := RunByzantine(cfg)
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if h1, h4 := sha256.Sum256([]byte(out)), sha256.Sum256([]byte(sharded.Render())); h1 != h4 {
		t.Fatalf("K=1 vs K=4 diverged:\n--- K=1\n%s\n--- K=4\n%s", out, sharded.Render())
	}
}

// TestByzantineHonestBaseline: with the adversarial fraction forced to
// zero the detection machinery must stay silent — no mismatches, no
// watchdog trips, no quarantine — and availability is near-perfect.
func TestByzantineHonestBaseline(t *testing.T) {
	cfg := byzTestConfig(11)
	cfg.AdversarialFrac = -1 // negative clamps to zero (0 would re-default)
	res, err := RunByzantine(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := res.Render()
	if res.Adversaries != 0 {
		t.Fatalf("adversaries in honest baseline:\n%s", out)
	}
	if res.Violations != 0 {
		t.Fatalf("violations in honest baseline:\n%s", out)
	}
	if len(res.Quarantine) != 0 || res.WatchdogTrips != 0 || res.Kicks != 0 {
		t.Fatalf("detection fired without adversaries:\n%s", out)
	}
	for _, c := range res.Cells {
		if c.Mismatches != 0 || c.Replays != 0 {
			t.Fatalf("honest cell %s accused: %d mismatches %d replays\n%s",
				c.ID, c.Mismatches, c.Replays, out)
		}
		if c.Score < 0.999 {
			t.Fatalf("honest cell %s score eroded to %f\n%s", c.ID, c.Score, out)
		}
	}
	if res.Availability < 0.99 {
		t.Fatalf("honest baseline availability %f\n%s", res.Availability, out)
	}
}

// TestByzantineTraceStability: attaching a tracer must not perturb the
// simulation — the rendered result is byte-identical with tracing on.
func TestByzantineTraceStability(t *testing.T) {
	plain, err := RunByzantine(byzTestConfig(7))
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cfg := byzTestConfig(7)
	cfg.Tracer = obs.NewTracer(0, nil) // RunByzantine rebinds to virtual time
	traced, err := RunByzantine(cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if plain.Render() != traced.Render() {
		t.Fatalf("tracer perturbed the run:\n--- plain\n%s\n--- traced\n%s",
			plain.Render(), traced.Render())
	}
	evs := cfg.Tracer.Events()
	if len(evs) == 0 {
		t.Fatal("tracer captured nothing")
	}
	var sawQuar, sawWd, sawBilling bool
	for _, e := range evs {
		switch e.Cat {
		case "quarantine":
			sawQuar = true
		case "watchdog":
			sawWd = true
		case "billing":
			sawBilling = true
		}
	}
	if !sawQuar || !sawWd || !sawBilling {
		t.Fatalf("missing trace scopes: quar=%v wd=%v billing=%v", sawQuar, sawWd, sawBilling)
	}
}

// TestByzantineRenderShape pins the render contract pieces other tooling
// greps for (CI gates on the invariant lines).
func TestByzantineRenderShape(t *testing.T) {
	res, err := RunByzantine(byzTestConfig(7))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := res.Render()
	for _, want := range []string{
		"invariants:", "violations=", "quarantine timeline:",
		"adversaries-quarantined", "ues-converged-honest", "overbilling-bounded",
		"availability-slo", "honest-untouched",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestByzantineSLOEngine pins the windowed SLOs' contract (slo.go): the
// render carries per-SLO margin lines and margin-bearing invariants, a
// brazen overbilling-only adversary breaches its per-cell overbilling
// window, the breach feeds the quarantine as evidence (slo/signal trace
// instants) — and none of it perturbs determinism.
func TestByzantineSLOEngine(t *testing.T) {
	spec, err := chaos.ParseSpec("overbill=1x60s@1")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	mk := func(tr *obs.Tracer) ByzantineConfig {
		cfg := byzTestConfig(13)
		cfg.AdvSpec = spec
		cfg.Tracer = tr
		return cfg
	}

	tr := obs.NewTracer(0, nil)
	res, err := RunByzantine(mk(tr))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := res.Render()
	if res.Violations != 0 {
		t.Fatalf("violations with overbilling-only adversaries:\n%s", out)
	}
	for _, want := range []string{
		"slo:", "availability", "attach-p99", "overbill-all",
		"worst_margin=", "breaches=", "margin=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if len(res.SLO) < 3 {
		t.Fatalf("expected >=3 SLO reports, got %d", len(res.SLO))
	}
	for _, iv := range res.Invariants {
		if iv.Name == "availability-slo" {
			if want := res.Availability - 0.9; math.Abs(iv.Margin-want) > 1e-9 {
				t.Fatalf("availability margin %f, want %f", iv.Margin, want)
			}
		}
	}
	cellBreaches := 0
	for _, s := range res.SLO {
		if strings.HasPrefix(s.Name, "overbill:") {
			cellBreaches += s.Breaches
		}
		if s.Evals == 0 {
			t.Fatalf("tracker %s never evaluated", s.Name)
		}
	}
	if cellBreaches == 0 {
		t.Fatalf("no per-cell overbilling breach under a full-rate overbilling adversary:\n%s", out)
	}
	var sawEnter, sawSignal bool
	for _, e := range tr.Events() {
		if e.Cat != "slo" {
			continue
		}
		switch e.Name {
		case "breach-enter":
			sawEnter = true
		case "signal":
			sawSignal = true
		}
	}
	if !sawEnter || !sawSignal {
		t.Fatalf("missing slo trace instants: enter=%v signal=%v", sawEnter, sawSignal)
	}

	// The SLO machinery must not perturb the run: an untraced rerun with
	// the signal enabled renders identically.
	rerun, err := RunByzantine(mk(nil))
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rerun.Render() != out {
		t.Fatalf("SLO-signal rerun diverged:\n--- first\n%s\n--- rerun\n%s", out, rerun.Render())
	}
}
