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
// output byte-identical to -seq; -shards K additionally partitions each
// scale/byzantine/storm world across K netem shards running in parallel, again
// with byte-identical output for any K; -json appends a machine-readable
// record of each experiment's wall time, allocations, and headline
// metrics to BENCH_<date>.json, building a benchmark trajectory across
// commits.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"runtime/pprof"

	"cellbricks/internal/chaos"
	"cellbricks/internal/mobility"
	"cellbricks/internal/netem"
	"cellbricks/internal/obs"
	"cellbricks/internal/testbed"
)

// expNames is the -exp vocabulary; it feeds the flag help and
// the unknown-experiment error.
const expNames = "fig7|table1|fig8|fig9|fig10|transports|scale|billing|failover|byzantine|storm|all"

// testbedDowntown avoids importing trace at every call site.
func testbedDowntown() mobility.Route { return mobility.Downtown }

// expRecord is one experiment's entry in the bench-trajectory file.
type expRecord struct {
	Name         string             `json:"name"`
	WallMS       float64            `json:"wall_ms"`
	Mallocs      uint64             `json:"mallocs"`
	AllocBytes   uint64             `json:"alloc_bytes"`
	OutputSHA256 string             `json:"output_sha256"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	// Telemetry is the experiment's delta of the process-wide obs registry
	// (counters moved, gauges as of the end of the run).
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// benchRun is one cbbench invocation: its configuration plus every
// experiment it ran.
type benchRun struct {
	Label      string `json:"label,omitempty"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"` // 0 = GOMAXPROCS; clamped to GOMAXPROCS when larger
	Sequential bool   `json:"sequential"`
	// Shards is the requested -shards value; ShardsEffective is after the
	// GOMAXPROCS clamp — the K that actually ran.
	Shards          int         `json:"shards"`
	ShardsEffective int         `json:"shards_effective"`
	Seed            int64       `json:"seed"`
	Experiments     []expRecord `json:"experiments"`
}

// benchFile is the on-disk trajectory: successive runs append, so one file
// carries before/after numbers across commits.
type benchFile struct {
	Runs []benchRun `json:"runs"`
}

func appendBenchRun(path string, run benchRun) error {
	var f benchFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s exists but is not a bench file: %w", path, err)
		}
	}
	f.Runs = append(f.Runs, run)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace renders the recorded trace: Chrome trace-event JSON (open in
// Perfetto or chrome://tracing) by default, JSON lines when the path ends
// in .jsonl.
func writeTrace(events []obs.TraceEvent, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = obs.WriteJSONLEvents(f, events)
	} else {
		err = obs.WriteChromeTraceEvents(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

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
	seq := flag.Bool("seq", false, "run every simulation sequentially (same output, no parallelism)")
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
	jsonOut := flag.Bool("json", false, "append wall time/allocs/metrics to the bench-trajectory file")
	jsonPath := flag.String("json-file", "", "bench-trajectory file (default BENCH_<date>.json)")
	label := flag.String("label", "", "label for this run in the bench-trajectory file")
	traceOut := flag.String("trace-out", "", "write the failover protocol trace to this file (Chrome trace-event JSON; .jsonl suffix for JSON lines)")
	timelineOut := flag.String("timeline-out", "", "write per-session attach timelines folded from the trace to this file (deterministic text; .json suffix for JSON)")
	traceSession := flag.String("trace-session", "", "restrict -trace-out/-timeline-out to one trace ID (16 hex digits, as printed in timeline headers)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder ring (recent trace events per component) to this file; always written on a failing exit (default cbbench-flight.txt)")
	byzNoSLO := flag.Bool("byz-no-slo", false, "byzantine: disable the SLO-breach quarantine signal (the SLO engine still evaluates and renders margins)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile per experiment to <prefix>.<exp>.cpu.pprof")
	memProfile := flag.String("memprofile", "", "write a heap profile per experiment to <prefix>.<exp>.mem.pprof")
	verbose := flag.Bool("v", false, "enable debug-level logging")
	flag.Parse()
	obs.Verbose(*verbose)

	// The tracer is always armed so the flight recorder has a feed; the
	// full event log is retained only when something will consume it.
	// Recording is observation-only — traced and untraced runs render
	// byte-identically (tested), so an always-on tracer is safe.
	tracer := obs.NewTracer(nil) // rebound to each run's sim clock
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

	runner := testbed.Runner{Workers: *workers, Sequential: *seq}
	effShards := netem.ClampShards(*shards)
	rec := benchRun{
		Label:           *label,
		Date:            time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         *workers,
		Sequential:      *seq,
		Shards:          *shards,
		ShardsEffective: effShards,
		Seed:            *seed,
	}
	// -dur defaults to the Table 1 drive time; the scale sweep has its own
	// 60 s default unless -dur was given explicitly.
	durSet := false
	flag.Visit(func(f *flag.Flag) { durSet = durSet || f.Name == "dur" })
	scaleDur := 60 * time.Second
	if durSet {
		scaleDur = *dur
	}

	// run executes one experiment, prints its rendered output, and (for
	// -json) records wall time, allocation deltas, and headline metrics.
	run := func(name, title string, f func() (string, map[string]float64, error)) {
		fmt.Printf("==== %s ====\n", title)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		telemBefore := obs.Default().Snapshot()
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
		t0 := time.Now()
		out, metrics, err := f()
		wall := time.Since(t0)
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
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
		sum := sha256.Sum256([]byte(out))
		rec.Experiments = append(rec.Experiments, expRecord{
			Name:         name,
			WallMS:       float64(wall.Microseconds()) / 1000,
			Mallocs:      after.Mallocs - before.Mallocs,
			AllocBytes:   after.TotalAlloc - before.TotalAlloc,
			OutputSHA256: hex.EncodeToString(sum[:]),
			Metrics:      metrics,
			Telemetry:    obs.Delta(telemBefore, obs.Default().Snapshot()),
		})
	}

	matched := false
	want := func(name string) bool {
		ok := *exp == "all" || *exp == name
		matched = matched || ok
		return ok
	}

	if want("fig7") {
		run("fig7", "Fig. 7: attachment latency breakdown (BL = Magma baseline, CB = CellBricks first contact, CBt = CellBricks on a ticket)", func() (string, map[string]float64, error) {
			results, err := testbed.RunFig7(*n, runner)
			if err != nil {
				return "", nil, err
			}
			m := make(map[string]float64)
			for _, r := range results {
				m[fmt.Sprintf("%s_%s_mean_ms", r.Placement.Name, r.Arch)] = r.Mean.Seconds() * 1000
			}
			return testbed.RenderFig7(results), m, nil
		})
	}
	if want("table1") {
		run("table1", "Table 1: application performance, MNO vs CellBricks", func() (string, map[string]float64, error) {
			res := testbed.RunTable1(testbed.Table1Config{Duration: *dur, Seed: *seed, Runner: runner})
			ipD, mosD, vidD, webD := res.Slowdown(false)
			ipN, mosN, vidN, webN := res.Slowdown(true)
			m := map[string]float64{
				"slowdown_day_iperf": ipD, "slowdown_day_voip": mosD,
				"slowdown_day_video": vidD, "slowdown_day_web": webD,
				"slowdown_night_iperf": ipN, "slowdown_night_voip": mosN,
				"slowdown_night_video": vidN, "slowdown_night_web": webN,
			}
			return res.Render(), m, nil
		})
	}
	if want("fig8") {
		run("fig8", "Fig. 8: iperf throughput around a handover (day, downtown)", func() (string, map[string]float64, error) {
			res := testbed.RunFig8(*seed, 60*time.Second)
			mnoMean, _, _ := testbed.Stats(res.MNOSeries)
			cbMean, _, _ := testbed.Stats(res.CBSeries)
			m := map[string]float64{"mno_mean_mbps": mnoMean / 1e6, "cb_mean_mbps": cbMean / 1e6}
			return res.Render(), m, nil
		})
	}
	if want("fig9") {
		run("fig9", "Fig. 9: relative throughput vs time since handover (night)", func() (string, map[string]float64, error) {
			res := testbed.RunFig9(*seed, *trials, runner)
			m := make(map[string]float64)
			for _, c := range res.Curves {
				if len(c.Points) > 0 {
					m[fmt.Sprintf("relperf_1s[%s]", c.Label)] = c.Points[0].RelPerf
				}
			}
			return res.Render(), m, nil
		})
	}
	if want("transports") {
		run("transports", "Ablation: host transports (MPTCP/QUIC/TCP+L7) web loads", func() (string, map[string]float64, error) {
			out := ""
			m := make(map[string]float64)
			for _, c := range testbed.RunTransportComparisonAll(*seed, *dur, runner) {
				out += fmt.Sprintf("%-22s %6.2fs over %d pages\n", c.Label, c.WebLoad.Seconds(), c.Pages)
				m[fmt.Sprintf("webload_s[%s]", c.Label)] = c.WebLoad.Seconds()
			}
			return out, m, nil
		})
	}
	if want("billing") {
		run("billing", "Integration: verifiable billing across a full night drive", func() (string, map[string]float64, error) {
			sc := testbed.Scenario{Route: testbedDowntown(), Night: true, Arch: testbed.ArchCellBricks, Seed: *seed, Duration: *dur}
			res, err := testbed.RunBilledDrive(sc, 30*time.Second)
			if err != nil {
				return "", nil, err
			}
			out := fmt.Sprintf("sessions=%d cycles=%d mismatches=%d\nUE-attested %d bytes, bTelco-claimed %d (gap %.3f%%)\nsettled %.6f units across %d bTelcos\n",
				res.Sessions, res.Cycles, res.Mismatches,
				res.UEBytes, res.TelcoBytes,
				100*(float64(res.TelcoBytes)-float64(res.UEBytes))/float64(res.UEBytes),
				res.TotalOwed, len(res.Settlements))
			m := map[string]float64{
				"sessions":   float64(res.Sessions),
				"mismatches": float64(res.Mismatches),
				"total_owed": res.TotalOwed,
			}
			return out, m, nil
		})
	}
	if want("scale") {
		run("scale", "Ablation: shared-cell scaling (50 Mbps cells, sharded world)", func() (string, map[string]float64, error) {
			var counts []int
			for _, f := range strings.Split(*scaleN, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n < 1 {
					return "", nil, fmt.Errorf("scale: bad -scale-n entry %q", f)
				}
				counts = append(counts, n)
			}
			cfg := testbed.ScaleConfig{Seed: *seed, CellBps: 50e6, Duration: scaleDur, Shards: effShards}
			results := testbed.RunScaleSweep(cfg, counts)
			m := make(map[string]float64)
			for _, r := range results {
				m[fmt.Sprintf("fairness_%due", r.N)] = r.Fairness
				m[fmt.Sprintf("wall_ms_%due", r.N)] = r.WallMS
				m[fmt.Sprintf("perue_p50_mbps_%due", r.N)] = r.PerUEBps.P50 / 1e6
				m[fmt.Sprintf("perue_p90_mbps_%due", r.N)] = r.PerUEBps.P90 / 1e6
				m[fmt.Sprintf("perue_p99_mbps_%due", r.N)] = r.PerUEBps.P99 / 1e6
				m[fmt.Sprintf("perue_min_mbps_%due", r.N)] = r.PerUEBps.Min / 1e6
				m[fmt.Sprintf("perue_max_mbps_%due", r.N)] = r.PerUEBps.Max / 1e6
			}
			return testbed.RenderScale(results), m, nil
		})
	}
	if want("failover") {
		run("failover", "Failover: seeded fault injection, outage-to-recovery and goodput dip", func() (string, map[string]float64, error) {
			spec, err := chaos.ParseSpec(*faults)
			if err != nil {
				return "", nil, err
			}
			res, err := testbed.RunFailover(testbed.FailoverConfig{
				Seed: *seed, Duration: *dur, Spec: spec, Tracer: tracer,
			})
			if err != nil {
				return "", nil, err
			}
			m := map[string]float64{
				"baseline_mbps":   res.BaselineBps / 1e6,
				"faulted_mbps":    res.FaultedBps / 1e6,
				"attach_retries":  float64(res.AttachRetries),
				"fallbacks":       float64(res.Fallbacks),
				"broker_restores": float64(res.BrokerRestores),
				"unrecovered":     float64(res.Unrecovered),
			}
			// Per-kind worst case: the number the availability story is
			// judged on.
			for _, o := range res.Outcomes {
				if !o.Recovered {
					continue
				}
				key := fmt.Sprintf("recovery_ms_%s", o.Kind)
				if ms := o.Recovery.Seconds() * 1000; ms > m[key] {
					m[key] = ms
				}
				key = fmt.Sprintf("dip_pct_%s", o.Kind)
				if o.DipPct > m[key] {
					m[key] = o.DipPct
				}
			}
			if res.Unrecovered > 0 {
				return res.Render(), m, fmt.Errorf("failover: %d fault(s) did not recover", res.Unrecovered)
			}
			return res.Render(), m, nil
		})
	}
	if want("byzantine") {
		run("byzantine", "Byzantine soak: adversarial bTelcos vs closed-loop quarantine", func() (string, map[string]float64, error) {
			spec, err := chaos.ParseSpec(*byzSpec)
			if err != nil {
				return "", nil, err
			}
			// The soak's own 60 s default unless -dur was given explicitly.
			byzDur := 60 * time.Second
			if durSet {
				byzDur = *dur
			}
			res, err := testbed.RunByzantine(testbed.ByzantineConfig{
				Seed:             *seed,
				Duration:         byzDur,
				Groups:           *byzGroups,
				CellsPerGroup:    *byzCells,
				UEsPerGroup:      *byzUEs,
				AdversarialFrac:  *byzFrac,
				AdvSpec:          spec,
				Shards:           effShards,
				Tracer:           tracer,
				DisableSLOSignal: *byzNoSLO,
			})
			if err != nil {
				return "", nil, err
			}
			quarantined := 0
			for _, c := range res.Cells {
				if c.Quarantined {
					quarantined++
				}
			}
			m := map[string]float64{
				"adversaries":    float64(res.Adversaries),
				"quarantined":    float64(quarantined),
				"availability":   res.Availability,
				"watchdog_trips": float64(res.WatchdogTrips),
				"kicks":          float64(res.Kicks),
				"violations":     float64(res.Violations),
			}
			if res.Violations > 0 {
				bad := make([]string, 0, res.Violations)
				for _, iv := range res.Invariants {
					if !iv.OK {
						bad = append(bad, fmt.Sprintf("%s (%s)", iv.Name, iv.Detail))
					}
				}
				return res.Render(), m, fmt.Errorf("byzantine: %d invariant violation(s): %s",
					res.Violations, strings.Join(bad, "; "))
			}
			return res.Render(), m, nil
		})
	}
	if want("storm") {
		run("storm", "Attach storm: flash crowd vs broker admission control", func() (string, map[string]float64, error) {
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
				return "", nil, err
			}
			wall := res.WallPre + res.WallSpike + res.WallPost
			m := map[string]float64{
				"attaches":      float64(res.Attaches),
				"sheds":         float64(res.Sheds),
				"batch_flushes": float64(res.BatchFlushes),
				"batch_items":   float64(res.BatchItems),
				"wall_pre_ms":   res.WallPre.Seconds() * 1000,
				"wall_spike_ms": res.WallSpike.Seconds() * 1000,
				"wall_post_ms":  res.WallPost.Seconds() * 1000,
			}
			if res.Attempts > 0 {
				m["shed_frac"] = float64(res.Sheds) / float64(res.Attempts)
			}
			if wall > 0 {
				m["attaches_per_sec"] = float64(res.Grants) / wall.Seconds()
			}
			if res.WallSpike > 0 {
				m["spike_attaches_per_sec"] = float64(res.SpikeGrants) / res.WallSpike.Seconds()
			}
			return res.Render(), m, nil
		})
	}
	if want("fig10") {
		run("fig10", "Fig. 10 (Appendix A): day vs night rate limiting (downtown)", func() (string, map[string]float64, error) {
			res := testbed.RunFig10(*seed, 500*time.Second)
			dm, _, _ := testbed.Stats(res.DaySeries)
			nm, _, _ := testbed.Stats(res.NightSeries)
			m := map[string]float64{"night_day_ratio": nm / dm}
			return res.Render(), m, nil
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
			if err := writeTrace(events, *traceOut); err != nil {
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

	if *jsonOut {
		path := *jsonPath
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
		}
		if err := appendBenchRun(path, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench file: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("appended run (%d experiments) to %s\n", len(rec.Experiments), path)
	}
}
