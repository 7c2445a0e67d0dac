package broker

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/sap"
)

// tryAttach runs the SAP exchange without failing the test on denial.
func (h *harness) tryAttach(t *testing.T) (*sap.AuthResp, error) {
	t.Helper()
	reqU, _, err := h.ue.NewAttachRequest(h.telco.IDT)
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := h.telco.ForwardRequest(reqU)
	if err != nil {
		t.Fatal(err)
	}
	return h.brk.HandleAuthRequest(reqT)
}

func TestQuarantineLifecycle(t *testing.T) {
	h := newHarness(t)
	var vnow time.Duration
	h.brk.EnableQuarantine(QuarantineConfig{
		EnterBelow: 0.7,
		ExitAbove:  0.9,
		Probation:  10 * time.Second,
	}, func() time.Duration { return vnow })

	var events []string
	h.brk.SetQuarantineNotify(func(idT string, entered bool, score float64) {
		if entered {
			events = append(events, "enter:"+idT)
		} else {
			events = append(events, "exit:"+idT)
		}
	})

	_, ref := h.attach(t)

	// Two no-goodput attestations: 0.8^2 = 0.64 < 0.7 → quarantine.
	h.brk.Evidence("h-telco", billing.WatchdogEvidence, 1.0)
	if h.brk.Quarantined("h-telco") {
		t.Fatal("quarantined after a single watchdog trip")
	}
	score := h.brk.Evidence("h-telco", billing.WatchdogEvidence, 1.0)
	if score >= 0.7 {
		t.Fatalf("score %.3f, want < 0.7", score)
	}
	if !h.brk.Quarantined("h-telco") {
		t.Fatal("not quarantined below EnterBelow")
	}
	e, ok := h.brk.QuarantineInfo("h-telco")
	if !ok || e.Strikes != 1 || e.Until != 10*time.Second {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}

	// Hard-block phase: attach vetoed with a quarantine cause.
	resp, err := h.tryAttach(t)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted || !strings.Contains(resp.Cause, "quarantined") {
		t.Fatalf("blocked-phase attach: granted=%v cause=%q", resp.Granted, resp.Cause)
	}
	if resp.TelcoScore >= 0.7 {
		t.Fatalf("denial did not propagate score: %.3f", resp.TelcoScore)
	}

	// Trial phase: attach allowed but demoted to the trial tier.
	vnow = 11 * time.Second
	if h.brk.Quarantined("h-telco") {
		t.Fatal("still hard-blocked after probation window")
	}
	resp, err = h.tryAttach(t)
	if err != nil || !resp.Granted {
		t.Fatalf("trial-phase attach denied: %+v err=%v", resp, err)
	}
	grant, _, err := h.telco.HandleResponse(h.brk.Public(), resp)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Params.DLAmbrBps != 1_000_000 {
		t.Fatalf("trial QoS not demoted: %+v", grant.Params)
	}

	// Fresh misbehavior during trial re-blocks with a doubled window.
	h.brk.Evidence("h-telco", billing.WatchdogEvidence, 1.0)
	e, _ = h.brk.QuarantineInfo("h-telco")
	if e.Strikes != 2 || e.Until != vnow+20*time.Second {
		t.Fatalf("re-entry = %+v", e)
	}

	// Honest behavior through a second trial rebuilds the score past
	// ExitAbove and clears the record entirely.
	vnow = 40 * time.Second
	for seq := uint32(1); seq <= 40; seq++ {
		h.report(t, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000)
		h.report(t, billing.ReporterTelco, h.telco.Key, ref, seq, 1_000_000)
	}
	if _, ok := h.brk.QuarantineInfo("h-telco"); ok {
		t.Fatalf("honest trial did not exit quarantine (score %.3f)", h.brk.TelcoScore("h-telco"))
	}
	resp, err = h.tryAttach(t)
	if err != nil || !resp.Granted {
		t.Fatalf("post-exit attach denied: %+v err=%v", resp, err)
	}
	grant, _, err = h.telco.HandleResponse(h.brk.Public(), resp)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Params.DLAmbrBps == 1_000_000 {
		t.Fatal("QoS still demoted after exit")
	}

	want := []string{"enter:h-telco", "enter:h-telco", "exit:h-telco"}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("notify events = %v, want %v", events, want)
	}
}

func TestReplayedReportPenalizedAndQuarantined(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableQuarantine(QuarantineConfig{EnterBelow: 0.7, Probation: time.Minute}, nil)
	_, ref := h.attach(t)

	h.report(t, billing.ReporterUE, h.ueKey, ref, 1, 1_000_000)
	h.report(t, billing.ReporterTelco, h.telco.Key, ref, 1, 1_000_000)

	stale := &billing.Report{
		SessionRef: ref, Reporter: billing.ReporterTelco, Seq: 1,
		Rel: 30 * time.Second, DLBytes: 1_000_000,
	}
	env, err := billing.Seal(stale, h.telco.Key, h.brk.Public())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.brk.HandleReport(env); !errors.Is(err, billing.ErrReplayedReport) {
			t.Fatalf("replay %d: err = %v", i, err)
		}
	}
	if s := h.brk.TelcoScore("h-telco"); s >= 0.7 {
		t.Fatalf("score %.3f after 3 replays, want < 0.7", s)
	}
	if !h.brk.Quarantined("h-telco") {
		t.Fatal("replaying bTelco not quarantined")
	}
}

func TestAuthRespCarriesTelcoScore(t *testing.T) {
	h := newHarness(t)
	resp, err := h.tryAttach(t)
	if err != nil || !resp.Granted {
		t.Fatalf("attach: %+v err=%v", resp, err)
	}
	if resp.TelcoScore != 1.0 {
		t.Fatalf("fresh bTelco score = %v, want 1.0", resp.TelcoScore)
	}
	h.brk.Evidence("h-telco", billing.WatchdogEvidence, 1.0)
	resp, err = h.tryAttach(t)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TelcoScore >= 1.0 {
		t.Fatalf("score did not propagate: %v", resp.TelcoScore)
	}
}

// TestSLOBreachEvidence: SLO breach-enter signals are misconduct evidence
// on the same footing as watchdog attestations — penalized, reviewed
// against the quarantine thresholds, and score-returned.
func TestSLOBreachEvidence(t *testing.T) {
	h := newHarness(t)
	h.brk.EnableQuarantine(QuarantineConfig{EnterBelow: 0.7, Probation: time.Minute}, nil)

	score := h.brk.Evidence("h-telco", billing.SLOBreachEvidence, 1.0)
	if score >= 1.0 {
		t.Fatalf("first breach did not penalize: %.3f", score)
	}
	if h.brk.Quarantined("h-telco") {
		t.Fatal("quarantined after a single breach signal")
	}
	score = h.brk.Evidence("h-telco", billing.SLOBreachEvidence, 1.0)
	if score >= 0.7 {
		t.Fatalf("score %.3f, want < 0.7", score)
	}
	if !h.brk.Quarantined("h-telco") {
		t.Fatal("repeated SLO breaches must quarantine")
	}
	resp, err := h.tryAttach(t)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted || !strings.Contains(resp.Cause, "quarantined") {
		t.Fatalf("breach-quarantined attach: granted=%v cause=%q", resp.Granted, resp.Cause)
	}
}

// TestRepeatOffenderStaysHardBlocked walks one bTelco through 70 quarantine
// entries, each on fresh evidence in the trial after the last: the s-th is
// hard-blocked for min(P·2^(s−1), 16P). Shifting the probation by the
// strike count overflowed from the 30th entry on, so a persistent cheat was
// never hard-blocked again.
func TestRepeatOffenderStaysHardBlocked(t *testing.T) {
	h := newHarness(t)
	const p = 30 * time.Second
	var vnow time.Duration
	h.brk.EnableQuarantine(QuarantineConfig{EnterBelow: 0.7, ExitAbove: 0.9, Probation: p},
		func() time.Duration { return vnow })
	want := p
	for s := 1; s <= 70; s++ {
		for i := 0; i < 2 && !h.brk.Quarantined("h-telco"); i++ {
			h.brk.Evidence("h-telco", billing.WatchdogEvidence, 1.0)
		}
		e, ok := h.brk.QuarantineInfo("h-telco")
		if !ok || e.Strikes != s || e.Since != vnow || e.Until-e.Since != want {
			t.Fatalf("entry %d = %+v (ok=%v), want since %v, hard-blocked for %v", s, e, ok, vnow, want)
		}
		vnow = e.Until - 1
		if !h.brk.Quarantined("h-telco") {
			t.Fatalf("entry %d: not hard-blocked just before %v", s, e.Until)
		}
		vnow = e.Until
		if want < 16*p {
			want *= 2
		}
	}
}
