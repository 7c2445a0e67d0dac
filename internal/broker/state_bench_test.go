package broker

import (
	"fmt"
	"runtime"
	"testing"

	"cellbricks/internal/billing"
)

// BenchmarkStatePerSession reports what a broker retains per session, in
// bytes, after 0, 1, 8 and 64 report pairs each (DESIGN.md §2.5's "what the
// broker keeps" table): the live heap with the broker reachable minus the
// live heap once it is dropped, so the harness's own UE and bTelco state
// is not counted. Run with -benchtime 1x; ns/op means nothing here.
func BenchmarkStatePerSession(b *testing.B) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, pairs := range []int{0, 1, 8, 64} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			sessions := 2000
			if pairs > 8 {
				sessions = 250 // every report is sealed and signed afresh
			}
			h := newHarness(b)
			for i := 0; i < sessions; i++ {
				_, ref := h.attach(b)
				for seq := uint32(1); seq <= uint32(pairs); seq++ {
					h.report(b, billing.ReporterUE, h.ueKey, ref, seq, 1_000_000*uint64(seq))
					h.report(b, billing.ReporterTelco, h.telco.Key, ref, seq, 1_000_000*uint64(seq))
				}
			}
			with := live()
			h.brk = nil
			without := live()
			b.ReportMetric(float64(with-without)/float64(sessions), "B/session")
		})
	}
}
