// Command cbbench regenerates every table and figure of the CellBricks
// paper's evaluation (§6) as text output:
//
//	cbbench -exp fig7            # attachment latency breakdown
//	cbbench -exp table1          # application performance, MNO vs CB
//	cbbench -exp fig8            # iperf timeline around a handover
//	cbbench -exp fig9            # attach-latency factor analysis
//	cbbench -exp fig10           # day vs night rate limiting
//	cbbench -exp transports      # MPTCP vs QUIC migration vs TCP + L7 restart
//	cbbench -exp scale           # shared-cell contention sweep on the sharded world
//	cbbench -exp billing         # verifiable billing across a full drive
//	cbbench -exp failover        # fault injection: outage-to-recovery + goodput dip
//	cbbench -exp byzantine       # Byzantine bTelcos vs quarantine, invariant-checked soak
//	cbbench -exp storm           # attach storm vs broker admission control
//	cbbench -exp all
//
// Flags tune the emulated duration, trials and seed; results print the
// same rows/series the paper reports. Independent simulations within an
// experiment fan out over -workers goroutines (default: GOMAXPROCS) with
// output byte-identical to -workers 1; -shards K additionally partitions each
// scale/byzantine/storm world across K netem shards running in parallel, again
// with byte-identical output for any K. Measured performance is the
// repository benchmark's (go run ./benchmark), not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cellbricks/internal/chaos"
	"cellbricks/internal/mobility"
	"cellbricks/internal/netem"
	"cellbricks/internal/obs"
	"cellbricks/internal/testbed"
)

// expNames is the -exp vocabulary; it feeds the flag help and
// the unknown-experiment error.
const expNames = "fig7|table1|fig8|fig9|fig10|transports|scale|billing|failover|byzantine|storm|all"

// writeTimelines folds the trace into per-session timelines: deterministic
// text by default, JSON when the path ends in .json.
func writeTimelines(events []obs.TraceEvent, path string) (int, error) {
	tls := obs.BuildTimelines(events)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if strings.HasSuffix(path, ".json") {
		err = obs.WriteTimelinesJSON(f, tls)
	} else {
		err = obs.RenderTimelines(f, tls)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return len(tls), err
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+expNames)
	seed := flag.Int64("seed", 1, "deterministic seed")
	n := flag.Int("n", 100, "fig7: attach repetitions per cell")
	dur := flag.Duration("dur", 5*time.Minute, "table1: emulated drive time per cell")
	trials := flag.Int("trials", 3, "fig9: trials per configuration")
	workers := flag.Int("workers", 0, "worker goroutines for independent simulations (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "netem world shards for scale/byzantine/storm (clamped to GOMAXPROCS; output is byte-identical for any value)")
	scaleN := flag.String("scale-n", "1,4,16,64,1024,10240", "scale: comma-separated UE counts to sweep")
	faults := flag.String("faults", "flap=2x3s,pause=1x800ms,broker=1x10s,crash=1x6s,corrupt=1x5s@0.05",
		"failover: fault spec, class=COUNTxDUR[@RATE] comma-separated (classes: flap pause broker crash corrupt trunc)")
	byzGroups := flag.Int("byz-groups", 4, "byzantine: fault-isolated groups of cells and UEs")
	byzCells := flag.Int("byz-cells", 2, "byzantine: bTelco cells per group")
	byzUEs := flag.Int("byz-ues", 6, "byzantine: UEs per group")
	byzFrac := flag.Float64("byz-frac", 0.25, "byzantine: adversarial fraction of all cells (negative for none)")
	byzSpec := flag.String("byz-spec", testbed.DefaultByzantineSpec,
		"byzantine: adversary spec, class=COUNTxDUR[@RATE] (classes: overbill underbill replay blackhole nasdrop hodrop)")
	stormRate := flag.Float64("storm-rate", 40, "storm: fleet-wide base attach arrival rate per second (ramps to 2x by the horizon)")
	stormSpike := flag.Float64("storm-spike", 8, "storm: flash-crowd rate multiplier over the mid-run spike window")
	stormUEs := flag.Int("storm-ues", 25, "storm: UEs per group (4 groups of 2 cells)")
	traceOut := flag.String("trace-out", "", "write the failover protocol trace to this file (Chrome trace-event JSON; .jsonl suffix for JSON lines)")
	timelineOut := flag.String("timeline-out", "", "write per-session attach timelines folded from the trace to this file (deterministic text; .json suffix for JSON)")
	traceSession := flag.String("trace-session", "", "restrict -trace-out/-timeline-out to one trace ID (16 hex digits, as printed in timeline headers)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder ring (recent trace events per component) to this file; always written on a failing exit (default cbbench-flight.txt)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile per experiment to <prefix>.<exp>.cpu.pprof")
	memProfile := flag.String("memprofile", "", "write a heap profile per experiment to <prefix>.<exp>.mem.pprof")
	verbose := flag.Bool("v", false, "enable debug-level logging")
	flag.Parse()
	obs.Verbose(*verbose)

	// The tracer is always armed so the flight recorder has a feed; the
	// full event log is retained only when something will consume it.
	// Recording is observation-only — traced and untraced runs render
	// byte-identically (tested), so an always-on tracer is safe.
	tracer := obs.NewTracer(*seed, nil) // rebound to each run's sim clock and seed
	tracer.SetRetain(*traceOut != "" || *timelineOut != "" || *traceSession != "")
	flight := obs.NewFlightRecorder(64)
	tracer.SetFlight(flight)
	dumpFlight := func() {
		path := *flightOut
		if path == "" {
			path = "cbbench-flight.txt"
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
			return
		}
		err = flight.WriteDump(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "flight recorder: %d recent events dumped to %s\n", flight.Len(), path)
	}

	runner := testbed.Runner{Workers: *workers}
	effShards := netem.ClampShards(*shards)
	// -dur defaults to the Table 1 drive time; the scale sweep has its own
	// 60 s default unless -dur was given explicitly.
	durSet := false
	flag.Visit(func(f *flag.Flag) { durSet = durSet || f.Name == "dur" })
	scaleDur := 60 * time.Second
	if durSet {
		scaleDur = *dur
	}

	// run executes one experiment, under the profilers when asked, and
	// prints its rendered output.
	run := func(name, title string, f func() (string, error)) {
		fmt.Printf("==== %s ====\n", title)
		var cpuFile *os.File
		if *cpuProfile != "" {
			var err error
			cpuFile, err = os.Create(fmt.Sprintf("%s.%s.cpu.pprof", *cpuProfile, name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				os.Exit(1)
			}
			if err := pprof.StartCPUProfile(cpuFile); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}
		out, err := f()
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *memProfile != "" {
			mf, merr := os.Create(fmt.Sprintf("%s.%s.mem.pprof", *memProfile, name))
			if merr == nil {
				runtime.GC()
				merr = pprof.WriteHeapProfile(mf)
				if cerr := mf.Close(); merr == nil {
					merr = cerr
				}
			}
			if merr != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", merr)
				os.Exit(1)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			dumpFlight()
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Println()
	}

	matched := false
	want := func(name string) bool {
		ok := *exp == "all" || *exp == name
		matched = matched || ok
		return ok
	}

	if want("fig7") {
		run("fig7", "Fig. 7: attachment latency breakdown (BL = Magma baseline, CB = CellBricks first contact, CBt = CellBricks on a ticket)", func() (string, error) {
			results, err := testbed.RunFig7(*n, runner)
			if err != nil {
				return "", err
			}
			return testbed.RenderFig7(results), nil
		})
	}
	if want("table1") {
		run("table1", "Table 1: application performance, MNO vs CellBricks", func() (string, error) {
			return testbed.RunTable1(testbed.Table1Config{Duration: *dur, Seed: *seed, Runner: runner}).Render(), nil
		})
	}
	if want("fig8") {
		run("fig8", "Fig. 8: iperf throughput around a handover (day, downtown)", func() (string, error) {
			return testbed.RunFig8(*seed, 60*time.Second).Render(), nil
		})
	}
	if want("fig9") {
		run("fig9", "Fig. 9: relative throughput vs time since handover (night)", func() (string, error) {
			return testbed.RunFig9(*seed, *trials, runner).Render(), nil
		})
	}
	if want("transports") {
		run("transports", "Ablation: host transports (MPTCP/QUIC/TCP+L7) web loads", func() (string, error) {
			out := ""
			for _, c := range testbed.RunTransportComparisonAll(*seed, *dur, runner) {
				out += fmt.Sprintf("%-22s %6.2fs over %d pages\n", c.Label, c.WebLoad.Seconds(), c.Pages)
			}
			return out, nil
		})
	}
	if want("billing") {
		run("billing", "Integration: verifiable billing across a full night drive", func() (string, error) {
			sc := testbed.Scenario{Route: mobility.Downtown, Night: true, Arch: testbed.ArchCellBricks, Seed: *seed, Duration: *dur}
			res, err := testbed.RunBilledDrive(sc, 30*time.Second)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("sessions=%d cycles=%d mismatches=%d\nUE-attested %d bytes, bTelco-claimed %d (gap %.3f%%)\nsettled %.6f units across %d bTelcos\n",
				res.Sessions, res.Cycles, res.Mismatches,
				res.UEBytes, res.TelcoBytes,
				100*(float64(res.TelcoBytes)-float64(res.UEBytes))/float64(res.UEBytes),
				res.TotalOwed, len(res.Settlements)), nil
		})
	}
	if want("scale") {
		run("scale", "Ablation: shared-cell scaling (50 Mbps cells, sharded world)", func() (string, error) {
			var counts []int
			for _, f := range strings.Split(*scaleN, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n < 1 {
					return "", fmt.Errorf("scale: bad -scale-n entry %q", f)
				}
				counts = append(counts, n)
			}
			cfg := testbed.ScaleConfig{Seed: *seed, CellBps: 50e6, Duration: scaleDur, Shards: effShards}
			return testbed.RenderScale(testbed.RunScaleSweep(cfg, counts)), nil
		})
	}
	if want("failover") {
		run("failover", "Failover: seeded fault injection, outage-to-recovery and goodput dip", func() (string, error) {
			spec, err := chaos.ParseSpec(*faults)
			if err != nil {
				return "", err
			}
			res, err := testbed.RunFailover(testbed.FailoverConfig{
				Seed: *seed, Duration: *dur, Spec: spec, Tracer: tracer,
			})
			if err != nil {
				return "", err
			}
			if res.Unrecovered > 0 {
				return res.Render(), fmt.Errorf("failover: %d fault(s) did not recover", res.Unrecovered)
			}
			return res.Render(), nil
		})
	}
	if want("byzantine") {
		run("byzantine", "Byzantine soak: adversarial bTelcos vs closed-loop quarantine", func() (string, error) {
			spec, err := chaos.ParseSpec(*byzSpec)
			if err != nil {
				return "", err
			}
			// The soak's own 60 s default unless -dur was given explicitly.
			byzDur := 60 * time.Second
			if durSet {
				byzDur = *dur
			}
			res, err := testbed.RunByzantine(testbed.ByzantineConfig{
				Seed:            *seed,
				Duration:        byzDur,
				Groups:          *byzGroups,
				CellsPerGroup:   *byzCells,
				UEsPerGroup:     *byzUEs,
				AdversarialFrac: *byzFrac,
				AdvSpec:         spec,
				Shards:          effShards,
				Tracer:          tracer,
			})
			if err != nil {
				return "", err
			}
			if res.Violations > 0 {
				bad := make([]string, 0, res.Violations)
				for _, iv := range res.Invariants {
					if !iv.OK {
						bad = append(bad, fmt.Sprintf("%s (%s)", iv.Name, iv.Detail))
					}
				}
				return res.Render(), fmt.Errorf("byzantine: %d invariant violation(s): %s",
					res.Violations, strings.Join(bad, "; "))
			}
			return res.Render(), nil
		})
	}
	if want("storm") {
		run("storm", "Attach storm: flash crowd vs broker admission control", func() (string, error) {
			// The storm's own 30 s default unless -dur was given explicitly.
			stormDur := 30 * time.Second
			if durSet {
				stormDur = *dur
			}
			res, err := testbed.RunStorm(testbed.StormConfig{
				Seed:        *seed,
				Duration:    stormDur,
				UEsPerGroup: *stormUEs,
				BaseRate:    *stormRate,
				Spike:       *stormSpike,
				Shards:      effShards,
			})
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	if want("fig10") {
		run("fig10", "Fig. 10 (Appendix A): day vs night rate limiting (downtown)", func() (string, error) {
			return testbed.RunFig10(*seed, 500*time.Second).Render(), nil
		})
	}

	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q: want %s\n", *exp, expNames)
		os.Exit(2)
	}

	if *traceOut != "" || *timelineOut != "" {
		events := tracer.Events()
		if *traceSession != "" {
			id, err := obs.ParseTraceID(*traceSession)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace-session: %v\n", err)
				os.Exit(2)
			}
			events = obs.FilterTrace(events, id)
		}
		if *traceOut != "" {
			if err := obs.WriteTraceFile(*traceOut, events); err != nil {
				fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d trace events to %s\n", len(events), *traceOut)
		}
		if *timelineOut != "" {
			n, err := writeTimelines(events, *timelineOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "timeline file: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d session timelines to %s\n", n, *timelineOut)
		}
	}
	if *flightOut != "" {
		dumpFlight()
	}
}
