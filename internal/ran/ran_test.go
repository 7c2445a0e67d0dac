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

// drive runs the terminal for dur at a tick granularity and collects its
// handover events.
func drive(m *Mobile, dur, tick time.Duration) []HandoverEvent {
	var out []HandoverEvent
	for t := time.Duration(0); t < dur; t += tick {
		if ev := m.Advance(t, tick); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

func TestMobileHandoverSequence(t *testing.T) {
	r := testRAN(12)
	m := NewMobile(r, 10) // 10 m/s over 800 m spacing -> HO every ~80 s
	dur := 800 * time.Second
	events := drive(m, dur, 100*time.Millisecond)
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
	events := drive(m, 200*time.Second, 100*time.Millisecond)
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
