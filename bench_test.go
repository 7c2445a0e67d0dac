package cellbricks

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§6), plus micro-benchmarks for the protocol hot paths.
// Each evaluation benchmark prints the regenerated rows/series once (on
// the first iteration) via b.Log, and times one full regeneration per
// iteration so `go test -bench=.` both reproduces and profiles the
// experiments. EXPERIMENTS.md records paper-vs-measured for each.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/epc"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/testbed"
	"cellbricks/internal/mobility"
)

// BenchmarkFig7AttachLatency regenerates Fig. 7: per-module attachment
// latency, baseline (2 S6A round trips) vs CellBricks (1 SAP round trip),
// for the three SubscriberDB/brokerd placements.
func BenchmarkFig7AttachLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := testbed.RunFig7(100, testbed.Runner{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + testbed.RenderFig7(results))
		}
	}
}

// BenchmarkTable1Apps regenerates Table 1: the four applications under
// MNO (TCP) vs CellBricks (MPTCP + SAP re-attach) across three routes and
// day/night, plus the overall-slowdown row.
func BenchmarkTable1Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := testbed.RunTable1(testbed.Table1Config{Duration: 5 * time.Minute, Seed: 7})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig8Timeline regenerates Fig. 8: the iperf throughput timeline
// around a handover, MNO vs CellBricks.
func BenchmarkFig8Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := testbed.RunFig8(3, 60*time.Second)
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig9AttachSweep regenerates Fig. 9: relative post-handover
// throughput vs window length for d = 32/64/128 ms (wait removed) and
// unmodified 500 ms-wait MPTCP.
func BenchmarkFig9AttachSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := testbed.RunFig9(3, 2, testbed.Runner{})
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig10DayNight regenerates Fig. 10 (Appendix A): the bimodal
// day/night operator rate limiting.
func BenchmarkFig10DayNight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := testbed.RunFig10(1, 500*time.Second)
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// --- ablations: design-choice benchmarks DESIGN.md calls out ---

// BenchmarkAblationMPTCPWait sweeps the address-worker wait period
// (0/100/250/500 ms) to quantify how much of the post-handover dip is the
// MPTCP implementation artifact vs the attachment itself.
func BenchmarkAblationMPTCPWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lines string
		for _, wait := range []time.Duration{time.Nanosecond, 100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond} {
			sc := testbed.Scenario{
				Route: mobility.Downtown, Night: true, Arch: testbed.ArchCellBricks,
				MPTCPWait: wait, Seed: 5, Duration: 4 * time.Minute,
			}
			res := testbed.RunIperf(sc)
			lines += time.Duration(wait).Round(time.Millisecond).String() + " wait: " +
				formatMbps(res.AvgBps) + "\n"
		}
		if i == 0 {
			b.Log("\nMPTCP wait-period ablation (night iperf avg):\n" + lines)
		}
	}
}

// BenchmarkAblationAttachLatency sweeps d well beyond the paper's range to
// find where attachment latency starts to dominate (crossover analysis).
func BenchmarkAblationAttachLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lines string
		for _, d := range []time.Duration{32 * time.Millisecond, 128 * time.Millisecond, 512 * time.Millisecond, 2 * time.Second} {
			sc := testbed.Scenario{
				Route: mobility.Highway, Night: true, Arch: testbed.ArchCellBricks,
				AttachLatency: d, MPTCPWait: time.Nanosecond, Seed: 5, Duration: 4 * time.Minute,
			}
			res := testbed.RunIperf(sc)
			lines += "d=" + d.String() + ": " + formatMbps(res.AvgBps) + "\n"
		}
		if i == 0 {
			b.Log("\nattach-latency ablation (highway night, 25.5s MTTHO):\n" + lines)
		}
	}
}

func formatMbps(bps float64) string {
	return fmt.Sprintf("%.2f Mbps", bps/1e6)
}

// --- protocol micro-benchmarks ---

// BenchmarkSAPAttachLocal measures a SAP attach (UE -> AGW -> broker ->
// back) through the real protocol objects with no simulated latency: the
// pure protocol + crypto cost per attachment in steady state, where every
// attach after the first rides its predecessor's ticket (DESIGN.md §2.8).
func BenchmarkSAPAttachLocal(b *testing.B) {
	d, err := testbed.NewRealDeployment()
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
			b.Fatal(err)
		}
		if err := dev.Detach(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegacyAttachLocal is the EPS-AKA counterpart.
func BenchmarkLegacyAttachLocal(b *testing.B) {
	d, err := testbed.NewRealDeployment()
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewLegacyUE("001013333333333")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.AttachLegacy(tx); err != nil {
			b.Fatal(err)
		}
		if err := dev.Detach(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealOpen measures the sealed-box primitive SAP and billing
// lean on.
func BenchmarkSealOpen(b *testing.B) {
	k, err := pki.GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box, err := pki.Seal(k.Public(), msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.Open(box); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBillingVerify measures the broker-side report pipeline.
func BenchmarkBillingVerify(b *testing.B) {
	v := billing.NewVerifier(billing.DefaultVerifierConfig())
	v.BindSession("s", "u", "t")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		v.Ingest(&billing.Report{SessionRef: "s", Reporter: billing.ReporterUE, Seq: seq, DLBytes: 1e6})
		v.Ingest(&billing.Report{SessionRef: "s", Reporter: billing.ReporterTelco, Seq: seq, DLBytes: 1e6})
	}
}

// BenchmarkUserPlane measures per-packet user-plane accounting+policing.
func BenchmarkUserPlane(b *testing.B) {
	up := epc.NewUserPlane()
	bearer := up.CreateBearer(1, "10.0.0.1", qos.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bearer.Process(time.Duration(i)*time.Microsecond, epc.Downlink, 1400)
	}
}

// BenchmarkAblationSoftHandover contrasts break-before-make (the paper's
// evaluated design point) with make-before-break migration on the
// handover-dense highway route.
func BenchmarkAblationSoftHandover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := testbed.Scenario{Route: mobility.Highway, Night: true, Arch: testbed.ArchCellBricks, Seed: 13, Duration: 4 * time.Minute}
		hard := testbed.RunIperf(base)
		soft := base
		soft.SoftHandover = true
		softRes := testbed.RunIperf(soft)
		if i == 0 {
			b.Logf("\nbreak-before-make: %s\nmake-before-break: %s", formatMbps(hard.AvgBps), formatMbps(softRes.AvgBps))
		}
	}
}

// BenchmarkAblationTransports compares the host-transport options (MPTCP
// deployed/modified, QUIC migration, TCP + L7 restart) on web loads.
func BenchmarkAblationTransports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := testbed.RunTransportComparisonAll(5, 5*time.Minute, testbed.Runner{})
		if i == 0 {
			var lines string
			for _, c := range res {
				lines += fmt.Sprintf("%-22s %6.2fs over %d pages\n", c.Label, c.WebLoad.Seconds(), c.Pages)
			}
			b.Log("\n" + lines)
		}
	}
}

// BenchmarkScaleSharedCell sweeps the UE count across shared 50 Mbps
// cells, once per world shard count — the shard-speedup A/B pair (on a
// single-core runner the two arms are expected to tie).
func BenchmarkScaleSharedCell(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := testbed.ScaleConfig{Seed: 17, CellBps: 50e6, Duration: 10 * time.Second, Shards: shards}
			for i := 0; i < b.N; i++ {
				results := testbed.RunScaleSweep(cfg, []int{64, 256})
				if i == 0 {
					b.Log("\n" + testbed.RenderScale(results))
				}
			}
		})
	}
}

// BenchmarkAblationBillingEpsilon sweeps the Fig. 5 tolerance ratio:
// tighter epsilon catches smaller inflation but risks flagging honest
// radio loss; the table prints false-positive and detection rates across
// simulated sessions.
func BenchmarkAblationBillingEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lines string
		for _, eps := range []float64{0.01, 0.03, 0.05, 0.10} {
			cfg := billing.DefaultVerifierConfig()
			cfg.Epsilon = eps
			v := billing.NewVerifier(cfg)
			rng := rand.New(rand.NewSource(42))
			fp, tp, honest, cheats := 0, 0, 0, 0
			for s := 0; s < 400; s++ {
				ref := fmt.Sprintf("s%d", s)
				v.BindSession(ref, "u", "t")
				loss := rng.Float64() * 0.08
				ueBytes := uint64(1_000_000 + rng.Intn(9_000_000))
				// The telco legitimately counts bytes lost after its meter
				// plus reporting-window skew of up to ±4% — the honest
				// discrepancy the tolerance must absorb.
				skew := (rng.Float64() - 0.3) * 0.04
				telcoBytes := uint64(float64(ueBytes) * (1 + loss + skew))
				inflated := s%4 == 0 // a quarter of sessions cheat by 12%
				if inflated {
					telcoBytes = uint64(float64(ueBytes) * 1.12 * (1 + loss))
					cheats++
				} else {
					honest++
				}
				v.Ingest(&billing.Report{SessionRef: ref, Reporter: billing.ReporterUE, Seq: 1, DLBytes: ueBytes, QoS: billing.QoSMetrics{DLLossRate: loss}})
				m, _ := v.Ingest(&billing.Report{SessionRef: ref, Reporter: billing.ReporterTelco, Seq: 1, DLBytes: telcoBytes})
				switch {
				case m != nil && inflated:
					tp++
				case m != nil && !inflated:
					fp++
				}
			}
			lines += fmt.Sprintf("eps=%.2f  false-positive %5.1f%%  detection(+12%% inflation) %5.1f%%\n",
				eps, 100*float64(fp)/float64(honest), 100*float64(tp)/float64(cheats))
		}
		if i == 0 {
			b.Log("\nbilling tolerance sweep:\n" + lines)
		}
	}
}

// BenchmarkBilledDrive runs the full verifiable-billing integration over
// an emulated night drive: SAP attachments, dual counters, sealed
// reports, Fig. 5 checks, and per-bTelco settlement.
func BenchmarkBilledDrive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := testbed.Scenario{Route: mobility.Downtown, Night: true, Arch: testbed.ArchCellBricks, Seed: 31, Duration: 5 * time.Minute}
		res, err := testbed.RunBilledDrive(sc, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\nsessions=%d cycles=%d mismatches=%d gap=%.3f%% owed=%.6f",
				res.Sessions, res.Cycles, res.Mismatches,
				100*(float64(res.TelcoBytes)-float64(res.UEBytes))/float64(res.UEBytes), res.TotalOwed)
		}
	}
}
