package netem

import (
	"fmt"
	"testing"
	"time"
)

// benchDelivery drives the Send -> schedule -> deliver hot path: one
// packet in flight per iteration, so b.N iterations measure exactly b.N
// admissions plus b.N deliveries.
func benchDelivery(b *testing.B) {
	sim := NewSim(1)
	sim.Connect("a", "b", &Link{Delay: time.Millisecond, Jitter: 10 * time.Microsecond})
	delivered := 0
	sim.Register("b", func(p *Packet) { delivered++ })
	pkt := &Packet{Src: "a", Dst: "b", Size: 1200}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.Send(pkt) {
			continue // random loss: nothing scheduled
		}
		sim.Step()
	}
	b.StopTimer()
	if delivered == 0 && b.N > 10 {
		b.Fatalf("no packets delivered")
	}
}

// BenchmarkDeliveryHotPath is the telemetry-overhead acceptance benchmark:
// compare the metrics=on and metrics=off sub-benchmarks; the on/off delta
// must stay under 5%. CI runs this as a smoke step.
func BenchmarkDeliveryHotPath(b *testing.B) {
	defer SetMetricsEnabled(true)
	for _, on := range []bool{true, false} {
		SetMetricsEnabled(on)
		b.Run(fmt.Sprintf("metrics=%v", on), benchDelivery)
	}
}

// TestMetricsCountDeliveries sanity-checks the wiring: a burst of sends
// moves the send/deliver counters by exactly the burst size.
func TestMetricsCountDeliveries(t *testing.T) {
	SetMetricsEnabled(true)
	sentBefore, deliveredBefore := mtr.sent.Value(), mtr.delivered.Value()

	sim := NewSim(7)
	sim.Connect("a", "b", &Link{Delay: time.Millisecond})
	got := 0
	sim.Register("b", func(p *Packet) { got++ })
	const n = 100
	for i := 0; i < n; i++ {
		sim.Send(&Packet{Src: "a", Dst: "b", Size: 100})
	}
	run(sim)

	if got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}
	if d := mtr.sent.Value() - sentBefore; d != n {
		t.Fatalf("netem_packets_sent_total moved by %d, want %d", d, n)
	}
	if d := mtr.delivered.Value() - deliveredBefore; d != n {
		t.Fatalf("netem_packets_delivered_total moved by %d, want %d", d, n)
	}
}

// TestMetricsDisabledIsInert: with handles nil, the same run records
// nothing and still behaves identically.
func TestMetricsDisabledIsInert(t *testing.T) {
	SetMetricsEnabled(false)
	defer SetMetricsEnabled(true)

	sim := NewSim(7)
	sim.Connect("a", "b", &Link{Delay: time.Millisecond, Loss: 0.5})
	got := 0
	sim.Register("b", func(p *Packet) { got++ })
	for i := 0; i < 100; i++ {
		sim.Send(&Packet{Src: "a", Dst: "b", Size: 100})
	}
	run(sim)
	if got == 0 || got == 100 {
		t.Fatalf("lossy link delivered %d of 100, want strictly between", got)
	}
}
