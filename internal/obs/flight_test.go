package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderBoundedPerCategory(t *testing.T) {
	fr := NewFlightRecorder(3)
	for i := 0; i < 10; i++ {
		fr.Record(TraceEvent{Cat: "wire", Name: fmt.Sprintf("e%d", i), seq: uint64(i + 1)})
	}
	fr.Record(TraceEvent{Cat: "broker", Name: "only", seq: 100})

	if fr.Len() != 4 {
		t.Fatalf("len = %d, want 4 (3 wire + 1 broker)", fr.Len())
	}
	if fr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", fr.Dropped())
	}
	ev := fr.Events()
	// Oldest surviving wire events first (e7, e8, e9), then broker.
	wantNames := []string{"e7", "e8", "e9", "only"}
	for i, w := range wantNames {
		if ev[i].Name != w {
			t.Fatalf("event %d = %q, want %q (%+v)", i, ev[i].Name, w, ev)
		}
	}
}

func TestFlightRecorderDumpDeterministic(t *testing.T) {
	mk := func() *FlightRecorder {
		fr := NewFlightRecorder(4)
		for i := 0; i < 20; i++ {
			fr.Record(TraceEvent{
				Cat: []string{"ue", "sap", "broker"}[i%3], Name: "op",
				Start: time.Duration(i) * time.Millisecond, seq: uint64(i + 1),
			})
		}
		return fr
	}
	var a, b bytes.Buffer
	if err := mk().WriteDump(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteDump(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || a.Len() == 0 {
		t.Fatalf("flight dump not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(TraceEvent{Cat: "x"})
	if fr.Len() != 0 || fr.Dropped() != 0 || fr.Events() != nil {
		t.Fatalf("nil recorder must be inert")
	}
	if err := fr.WriteDump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestTracerFeedsFlightWithRetainOff: with retention off the tracer's own
// buffer stays empty but the flight recorder still sees everything — the
// bounded-memory soak configuration.
func TestTracerFeedsFlightWithRetainOff(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	fr := NewFlightRecorder(8)
	tr.SetFlight(fr)
	tr.SetRetain(false)

	for i := 0; i < 20; i++ {
		now = time.Duration(i) * time.Millisecond
		tr.Event("soak", "tick", nil)
	}
	if tr.Len() != 0 {
		t.Fatalf("tracer retained %d events with retain off", tr.Len())
	}
	if fr.Len() != 8 {
		t.Fatalf("flight holds %d, want 8", fr.Len())
	}
	ev := fr.Events()
	if ev[0].Start != 12*time.Millisecond || ev[len(ev)-1].Start != 19*time.Millisecond {
		t.Fatalf("flight should hold the most recent events: %+v", ev)
	}
	if tr.Flight() != fr {
		t.Fatalf("Flight() accessor mismatch")
	}
}

// TestTracerStripedOrder: concurrent recorders land in a total order; a
// single-goroutine recording keeps its program order.
func TestTracerStripedOrder(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	for i := 0; i < 100; i++ {
		tr.Event("seq", fmt.Sprintf("e%d", i), nil)
	}
	ev := tr.Events()
	if len(ev) != 100 {
		t.Fatalf("events = %d, want 100", len(ev))
	}
	for i, e := range ev {
		if e.Name != fmt.Sprintf("e%d", i) {
			t.Fatalf("event %d out of order: %q", i, e.Name)
		}
	}

	tr2 := NewTracer(func() time.Duration { return 0 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr2.Span("par", "s", 0, time.Millisecond, nil)
			}
		}(g)
	}
	wg.Wait()
	ev2 := tr2.Events()
	if len(ev2) != 4000 {
		t.Fatalf("concurrent events = %d, want 4000", len(ev2))
	}
	for i := 1; i < len(ev2); i++ {
		if ev2[i].seq <= ev2[i-1].seq {
			t.Fatalf("events not in sequence order at %d", i)
		}
	}
}

// BenchmarkTracerEvent measures the per-record cost of the striped append
// path — the satellite fix for the old single-global-mutex tracer.
func BenchmarkTracerEvent(b *testing.B) {
	tr := NewTracer(func() time.Duration { return 0 })
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Span("bench", "op", 0, time.Microsecond, nil)
		}
	})
}

// TestTracerEventRetainOffZeroAlloc holds the sink-only path (flight
// recorder attached, retention off) that long soaks record through at 0
// allocations per event; BenchmarkTracerEventRetainOff times it.
func TestTracerEventRetainOffZeroAlloc(t *testing.T) {
	tr := NewTracer(func() time.Duration { return 0 })
	tr.SetFlight(NewFlightRecorder(64))
	tr.SetRetain(false)
	if n := testing.AllocsPerRun(1000, func() { tr.Span("bench", "op", 0, time.Microsecond, nil) }); n != 0 {
		t.Fatalf("retain-off event: %v allocs/op, want 0", n)
	}
}

// BenchmarkTracerEventRetainOff measures the sink-only path (flight
// recorder attached, retention off) used by long soaks.
func BenchmarkTracerEventRetainOff(b *testing.B) {
	tr := NewTracer(func() time.Duration { return 0 })
	tr.SetFlight(NewFlightRecorder(64))
	tr.SetRetain(false)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Span("bench", "op", 0, time.Microsecond, nil)
		}
	})
}
