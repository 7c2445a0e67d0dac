package chaos

import (
	"testing"
	"time"

	"cellbricks/internal/netem"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := "flap=2x3s,pause=1x800ms,broker=1x20s,crash=1x10s,corrupt=1x10s@0.05,trunc=1x5s@0.1"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Classes[KindFlap].Count != 2 || spec.Classes[KindFlap].Dur != 3*time.Second {
		t.Fatalf("flap parsed wrong: %+v", spec.Classes[KindFlap])
	}
	if spec.Classes[KindCorrupt].Rate != 0.05 {
		t.Fatalf("corrupt rate = %v, want 0.05", spec.Classes[KindCorrupt].Rate)
	}
	out := spec.String()
	spec2, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if spec2 != spec {
		t.Fatalf("round trip mismatch: %q -> %+v vs %+v", out, spec2, spec)
	}
}

func TestParseSpecAdversaryKindsRoundTrip(t *testing.T) {
	in := "overbill=1x20s@1,underbill=1x10s@0.25,replay=2x8s,blackhole=1x6s,nasdrop=1x12s@0.4,hodrop=1x9s"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Classes[KindOverbill].Rate != 1.0 {
		t.Fatalf("overbill rate = %v, want 1", spec.Classes[KindOverbill].Rate)
	}
	if spec.Classes[KindReplay].Count != 2 || spec.Classes[KindReplay].Dur != 8*time.Second {
		t.Fatalf("replay parsed wrong: %+v", spec.Classes[KindReplay])
	}
	out := spec.String()
	spec2, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if spec2 != spec {
		t.Fatalf("round trip mismatch: %q -> %+v vs %+v", out, spec2, spec)
	}
	if out2 := spec2.String(); out2 != out {
		t.Fatalf("print not stable: %q vs %q", out, out2)
	}
}

func TestParseSpecAdversaryDefaults(t *testing.T) {
	spec, err := ParseSpec("overbill=1x10s,underbill=1x10s,nasdrop=1x10s,blackhole=1x10s")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if got := spec.Classes[KindOverbill].Rate; got != 1.0 {
		t.Errorf("default overbill rate = %v, want 1", got)
	}
	if got := spec.Classes[KindUnderbill].Rate; got != 0.5 {
		t.Errorf("default underbill rate = %v, want 0.5", got)
	}
	if got := spec.Classes[KindNASDrop].Rate; got != 0.5 {
		t.Errorf("default nasdrop rate = %v, want 0.5", got)
	}
	if got := spec.Classes[KindBlackhole].Rate; got != 0 {
		t.Errorf("blackhole should take no default rate, got %v", got)
	}
}

// FuzzSpecRoundTrip pins parse→print→parse stability: any string that
// parses must print to a canonical form that re-parses to the same Spec
// and re-prints byte-identically.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("flap=2x3s,broker=1x20s")
	f.Add("overbill=1x20s@1,replay=2x8s,nasdrop=1x12s@0.4")
	f.Add("blackhole=3x6s,hodrop=1x9s,underbill=2x5s@0.125")
	f.Add("corrupt=1x10s,trunc=1x5s@0.1")
	f.Add("flap=1x3s,flap=2x4s") // duplicate class accumulates
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		out := spec.String()
		spec2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", out, err)
		}
		if spec2 != spec {
			t.Fatalf("%q: re-parse of %q gave %+v, want %+v", s, out, spec2, spec)
		}
		if out2 := spec2.String(); out2 != out {
			t.Fatalf("%q: print not stable: %q vs %q", s, out, out2)
		}
	})
}

func TestReplayArmsAdversaryKinds(t *testing.T) {
	spec, err := ParseSpec("overbill=1x4s,replay=1x4s,blackhole=1x4s,nasdrop=1x4s,hodrop=1x4s,underbill=1x4s")
	if err != nil {
		t.Fatal(err)
	}
	sched := spec.Compile(5, time.Minute)

	sim := netem.NewSim(1)
	adv := NewAdversary(5)
	if armed := sched.Replay(sim, Hooks{}); armed != 0 {
		t.Fatalf("nil hooks armed %d faults, want 0", armed)
	}
	// Hooks need a fresh sim: At() panics on past times after a run.
	sim = netem.NewSim(1)
	if armed := sched.Replay(sim, adv.Hooks()); armed != 6 {
		t.Fatalf("armed %d faults, want 6", armed)
	}
	var sawOverbill, sawBlackhole bool
	for at := time.Second; at <= time.Minute; at += 100 * time.Millisecond {
		sim.RunUntil(at)
		if adv.MeterBytes(1000) != 1000 {
			sawOverbill = true
		}
		if adv.Blackholing() {
			sawBlackhole = true
		}
	}
	if !sawOverbill || !sawBlackhole {
		t.Fatalf("behaviors never activated: overbill=%v blackhole=%v", sawOverbill, sawBlackhole)
	}
	if adv.MeterBytes(1000) != 1000 || adv.Blackholing() {
		t.Fatalf("behaviors did not clear after their windows")
	}
}

func TestAdversaryBehaviors(t *testing.T) {
	adv := NewAdversary(3)
	h := adv.Hooks()

	h.Overbill(1.0)
	if got := adv.MeterBytes(1 << 20); got != 2<<20 {
		t.Fatalf("overbill@1.0: MeterBytes = %d, want %d", got, 2<<20)
	}
	h.Overbill(0)
	h.Underbill(0.5)
	if got := adv.MeterBytes(1 << 20); got != 1<<19 {
		t.Fatalf("underbill@0.5: MeterBytes = %d, want %d", got, 1<<19)
	}
	h.Underbill(0)
	if got := adv.MeterBytes(12345); got != 12345 {
		t.Fatalf("honest MeterBytes = %d, want 12345", got)
	}

	if adv.DropNAS() {
		t.Fatal("DropNAS with no nasdrop active")
	}
	h.NASDrop(1.0)
	if !adv.DropNAS() {
		t.Fatal("DropNAS at rate 1.0 did not drop")
	}
	h.NASDrop(0)

	if adv.DropHandover(true) {
		t.Fatal("DropHandover with hodrop off")
	}
	h.HODrop(true)
	if !adv.DropHandover(true) || adv.DropHandover(false) {
		t.Fatal("hodrop must drop handovers only")
	}

	if adv.ReplayReport() {
		t.Fatal("ReplayReport with replay off")
	}
	h.ReportReplay(true)
	if !adv.ReplayReport() {
		t.Fatal("ReplayReport with replay on")
	}

	// A nil adversary (honest bTelco) is a no-op everywhere.
	var hon *Adversary
	if hon.MeterBytes(7) != 7 || hon.DropNAS() || hon.Blackholing() ||
		hon.ReplayReport() || hon.DropHandover(true) {
		t.Fatal("nil adversary misbehaved")
	}
}

func TestParseSpecDefaultsCorruptRate(t *testing.T) {
	spec, err := ParseSpec("corrupt=1x10s")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Classes[KindCorrupt].Rate != 0.05 {
		t.Fatalf("default corrupt rate = %v, want 0.05", spec.Classes[KindCorrupt].Rate)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus=1x3s",        // unknown class
		"flap=0x3s",         // zero count
		"flap=1x-3s",        // negative duration
		"flap=1",            // missing duration
		"flap",              // missing '='
		"corrupt=1x3s@1.5",  // rate out of range
		"corrupt=1x3s@-0.1", // rate out of range
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
	}
	if spec, err := ParseSpec(""); err != nil || !spec.Empty() {
		t.Errorf("empty spec should parse as empty schedule, got %+v, %v", spec, err)
	}
}

func TestCompileDeterministic(t *testing.T) {
	spec, err := ParseSpec("flap=3x2s,broker=1x10s,corrupt=2x4s@0.1")
	if err != nil {
		t.Fatal(err)
	}
	horizon := 2 * time.Minute
	a := spec.Compile(42, horizon)
	b := spec.Compile(42, horizon)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	c := spec.Compile(43, horizon)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical schedules:\n%s", a)
	}
}

func TestCompileBoundsAndOrder(t *testing.T) {
	spec, _ := ParseSpec("flap=5x3s,pause=5x1s,broker=2x15s")
	horizon := 90 * time.Second
	sched := spec.Compile(7, horizon)
	if len(sched.Faults) != 12 {
		t.Fatalf("got %d faults, want 12", len(sched.Faults))
	}
	var prev time.Duration = -1
	for _, f := range sched.Faults {
		if f.At < prev {
			t.Fatalf("schedule not sorted: %v after %v", f.At, prev)
		}
		prev = f.At
		if f.At < horizon/10 {
			t.Errorf("fault %s before warmup window", f)
		}
		if f.At+f.Dur > horizon {
			t.Errorf("fault %s extends past horizon %v", f, horizon)
		}
	}
}
