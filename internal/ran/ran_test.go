package ran

import (
	"fmt"
	"testing"
	"time"
)

func testRAN(n int) *RAN {
	// Every tower its own bTelco: the paper's extreme scenario.
	return LinearDeployment(n, 800, func(i int) string { return fmt.Sprintf("btelco-%d", i) })
}

func TestRSSIMonotonicWithDistance(t *testing.T) {
	c := Cell{PosM: 0, TxDBm: 43}
	last := c.RSSI(1)
	for d := 10.0; d <= 10000; d *= 2 {
		got := c.RSSI(d)
		if got >= last {
			t.Fatalf("RSSI not decreasing at %f: %f >= %f", d, got, last)
		}
		last = got
	}
	// Symmetric.
	if c.RSSI(-500) != c.RSSI(500) {
		t.Fatal("RSSI asymmetric")
	}
}

func TestStrongestAtMidpoints(t *testing.T) {
	r := testRAN(10)
	for i := 0; i < 10; i++ {
		pos := float64(i) * 800
		best := r.StrongestAt(pos)
		if best.ID != r.Cells[i].ID {
			t.Fatalf("at tower %d position, strongest = %s", i, best.ID)
		}
	}
	if (&RAN{}).StrongestAt(0) != nil {
		t.Fatal("empty RAN returned a cell")
	}
}

func TestNeighbors(t *testing.T) {
	r := testRAN(10)
	n := r.Neighbors(&r.Cells[5], 4)
	if len(n) != 4 {
		t.Fatalf("got %d neighbors", len(n))
	}
	// Nearest first: cells 4 and 6 must lead.
	near := map[string]bool{r.Cells[4].ID: true, r.Cells[6].ID: true}
	if !near[n[0].ID] || !near[n[1].ID] {
		t.Fatalf("neighbors not nearest-first: %v %v", n[0].ID, n[1].ID)
	}
	for _, c := range n {
		if c.ID == r.Cells[5].ID {
			t.Fatal("cell is its own neighbor")
		}
	}
}

func TestMobileHandoverSequence(t *testing.T) {
	r := testRAN(12)
	m := NewMobile(r, 10) // 10 m/s over 800 m spacing -> HO every ~80 s
	dur := 800 * time.Second
	events := m.DriveHandovers(dur, 100*time.Millisecond)
	// Crossing ~10 cell boundaries.
	if len(events) < 8 || len(events) > 11 {
		t.Fatalf("got %d handovers over %v", len(events), dur)
	}
	for i, ev := range events {
		if ev.From.ID == ev.To.ID {
			t.Fatalf("event %d: handover to the same cell", i)
		}
		if !ev.CrossesTelco {
			t.Fatalf("event %d: single-tower bTelcos must always cross providers", i)
		}
		if i > 0 && ev.At <= events[i-1].At {
			t.Fatal("events out of order")
		}
	}
	// Inter-handover times near 80s (hysteresis shifts the crossing
	// slightly past the midpoint).
	for i := 1; i < len(events); i++ {
		gap := (events[i].At - events[i-1].At).Seconds()
		if gap < 60 || gap > 100 {
			t.Fatalf("handover gap %d = %.1fs, want ~80", i, gap)
		}
	}
}

func TestHysteresisPreventsPingPong(t *testing.T) {
	r := testRAN(3)
	m := NewMobile(r, 0.0) // stationary at 0
	// Sitting still must never hand over.
	if ev := m.Advance(0, time.Hour); ev != nil {
		t.Fatalf("stationary UE handed over: %+v", ev)
	}
	// A UE exactly at the midpoint (equal RSSI) must stay with its
	// serving cell: hysteresis requires a clear winner.
	m2 := NewMobile(r, 0)
	m2.posM = 400 // midpoint of cells 0 and 1
	if ev := m2.Advance(0, 0); ev != nil {
		t.Fatalf("midpoint UE handed over: %+v", ev)
	}
}

func TestSameTelcoDeployment(t *testing.T) {
	// One MNO owning all towers: handovers never cross providers.
	r := LinearDeployment(5, 800, func(int) string { return "mno-1" })
	m := NewMobile(r, 20)
	events := m.DriveHandovers(200*time.Second, 100*time.Millisecond)
	if len(events) == 0 {
		t.Fatal("no handovers")
	}
	for _, ev := range events {
		if ev.CrossesTelco {
			t.Fatal("same-MNO handover flagged as provider crossing")
		}
	}
}

func TestLinearDeploymentIDsUnique(t *testing.T) {
	r := testRAN(60)
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func selCands() []Candidate {
	return []Candidate{
		{Cell: Cell{ID: "strong-pricey"}, RSSI: -60, PricePerGB: 5.0, Reputation: 0.9},
		{Cell: Cell{ID: "ok-cheap"}, RSSI: -80, PricePerGB: 1.0, Reputation: 0.9},
		{Cell: Cell{ID: "ok-shady"}, RSSI: -75, PricePerGB: 0.5, Reputation: 0.2},
		{Cell: Cell{ID: "too-weak"}, RSSI: -118, PricePerGB: 0.1, Reputation: 1.0},
	}
}

func TestSelectSignalOnly(t *testing.T) {
	got := Select(selCands(), SignalOnly())
	if len(got) == 0 || got[0].Cell.ID != "strong-pricey" {
		t.Fatalf("signal-only picked %+v", got)
	}
}

func TestSelectValueAware(t *testing.T) {
	got := Select(selCands(), ValueAware())
	if len(got) == 0 {
		t.Fatal("no candidates")
	}
	// The shady cell is disqualified by MinReputation and the weak one by
	// MinRSSI; only the two qualified cells may appear, in either order
	// depending on how the weights trade signal against price.
	for _, c := range got {
		if c.Cell.ID == "ok-shady" || c.Cell.ID == "too-weak" {
			t.Fatalf("disqualified cell ranked: %s", c.Cell.ID)
		}
	}
	if len(got) != 2 {
		t.Fatalf("qualified = %d, want 2", len(got))
	}
}

func TestSelectEmptyAndSingle(t *testing.T) {
	if got := Select(nil, ValueAware()); len(got) != 0 {
		t.Fatal("selection from nothing")
	}
	one := []Candidate{{Cell: Cell{ID: "only"}, RSSI: -70, Reputation: 1}}
	if got := Select(one, ValueAware()); len(got) != 1 || got[0].Cell.ID != "only" {
		t.Fatalf("single candidate mishandled: %+v", got)
	}
}

func TestSelectDropsQuarantined(t *testing.T) {
	cands := selCands()
	cands[0].Quarantined = true // best signal, but broker-quarantined
	got := Select(cands, SignalOnly())
	if len(got) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range got {
		if c.Cell.ID == "strong-pricey" {
			t.Fatal("quarantined cell survived selection")
		}
	}
	if got[0].Cell.ID != "ok-shady" {
		t.Fatalf("expected next-strongest cell first, got %s", got[0].Cell.ID)
	}
	// Quarantine disqualifies even when every cell is marked: the UE
	// must then fall back to its FSM-level override, not Select.
	for i := range cands {
		cands[i].Quarantined = true
	}
	if got := Select(cands, SignalOnly()); len(got) != 0 {
		t.Fatalf("all-quarantined set returned %d candidates", len(got))
	}
}

func TestSelectPriceBreaksTie(t *testing.T) {
	cands := []Candidate{
		{Cell: Cell{ID: "same-a"}, RSSI: -70, PricePerGB: 3.0, Reputation: 0.9},
		{Cell: Cell{ID: "same-b"}, RSSI: -70, PricePerGB: 1.0, Reputation: 0.9},
	}
	got := Select(cands, ValueAware())
	if got[0].Cell.ID != "same-b" {
		t.Fatalf("equal-signal tie not broken by price: %s first", got[0].Cell.ID)
	}
}
