// Command benchmark is the repository's performance benchmark: one run
// executes one workload from a seed for a fixed measuring time, checks the
// program's outputs, and prints every metric by name with its unit; the
// last line of standard output is the result as one JSON object. See
// README.md for the method and BENCHMARK.json for the metric contract.
//
//	go run ./benchmark --workload session_real --seed 1 --seconds 28 --trace 0
//	go run ./benchmark --workload session_real --seed 1 --seconds 28 --trace 1
//	go run ./benchmark -agree benchmark/out/a.jsonl benchmark/out/b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
	"unsafe"

	"cellbricks/internal/obs"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every size about two hundredfold for the smoke test;
	// the numbers it produces mean nothing.
	tiny bool
	// outDir receives trace_<workload>.jsonl in trace mode.
	outDir string
}

// reps is how many times a side comparison runs: full at full size, once
// in the smoke test.
func (c config) reps(full int) int {
	if c.tiny {
		return 1
	}
	return full
}

// workload is one set of inputs the benchmark runs. Implementations keep
// the result-struct tallies their layer metrics need.
type workload interface {
	// setUp builds the world and keys from the seed and warms the path up.
	// The runner times it several times; tearDown releases what it built.
	setUp() error
	tearDown()
	// segment runs the i-th stretch of ops (inputs from seed+i) and
	// returns how many it attempted and how many failed. rec is nil when
	// tracing is off.
	segment(i int, rec *recorder) (ops, failed int, err error)
	// verify checks the program's outputs after the measured stretch,
	// given the obs counter deltas over it and the ops attempted.
	verify(delta map[string]float64, ops int) error
	// layers returns the workload's own per-layer quantities (trace
	// mode), keyed by workloadMetrics names; the ones it leaves out are
	// reported as 0.
	layers(lc layerCtx) (map[string]float64, error)
}

// layerCtx is what a workload's layers method may draw on.
type layerCtx struct {
	ref        *refKernel
	spans      []span
	delta      map[string]float64 // obs counter deltas over the measured stretch
	ops        int                // ops attempted over that stretch
	all        *timing            // every segment, traced and untraced
	tracedWall time.Duration      // wall time of the traced segments
	liveKB     float64            // growth of the live heap over the stretch
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "session_real":
		return newSessionReal(cfg), nil
	case "storm_emu":
		return newStormEmu(cfg), nil
	case "scale_emu":
		return newScaleEmu(cfg), nil
	case "drive_emu":
		return newDriveEmu(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want session_real, storm_emu, scale_emu or drive_emu)", cfg.workload)
}

// metricSet collects named values in emission order.
type metricSet struct {
	names  []string
	values map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) add(name, unit string, v float64) {
	if m.values == nil {
		m.values = make(map[string]metricValue)
	}
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	m.names = append(m.names, name)
	m.values[name] = metricValue{v, unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const setupReps = 3

// run executes one benchmark run. The returned metricSet holds the gated
// metrics of the mode (end-to-end with tracing off, per-layer with it on);
// info holds the raw host figures that gate nothing.
func run(cfg config) (res result, gated, info *metricSet, err error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return res, nil, nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minSegs := 2 * cfg.reps(4)

	// Set-up, timed setupReps times; the last world is kept.
	ref := newRefKernel(cfg.seed)
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return res, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupReps-1 {
			w.tearDown()
		}
	}
	defer w.tearDown()
	runtime.GC()

	gated, info = &metricSet{}, &metricSet{}
	snap0 := obs.Default().Snapshot()
	if !cfg.trace {
		t, err := measure(ref, budget, minSegs, func(i int) (int, int, error) { return w.segment(i, nil) })
		if err != nil {
			return res, nil, nil, err
		}
		res.Attempted, res.Failed = t.ops()
		if err := w.verify(obs.Delta(snap0, obs.Default().Snapshot()), res.Attempted); err != nil {
			return res, nil, nil, fmt.Errorf("output check: %w", err)
		}
		gated.add("setup_s", "s", median(setups))
		gated.add("op_cost_ref", "refop", t.opCostRef())
		gated.add("cpu_cost_ref", "refop", t.cpuCostRef())
		gated.add("allocs_per_op", "count", t.allocsPerOp())
		gated.add("alloc_kb_per_op", "KiB", t.allocKBPerOp())
		gated.add("peak_rss_mb", "MiB", t.peakRSSMiB())
		hostFigures(info, w, t, t)
	} else {
		// Traced and untraced segments alternate on the same inputs, so the
		// tracing overhead is a paired comparison under the same host speed.
		// The rest of the measuring time goes to the comparisons in layers
		// and to the price list.
		rec := newRecorder()
		live0 := liveHeap()
		all, err := measure(ref, budget*40/100, 2*minSegs, func(i int) (int, int, error) {
			if i%2 == 0 {
				return w.segment(i/2, rec)
			}
			return w.segment(i/2, nil)
		})
		if err != nil {
			return res, nil, nil, err
		}
		delta := obs.Delta(snap0, obs.Default().Snapshot())
		res.Attempted, res.Failed = all.ops()
		if err := w.verify(delta, res.Attempted); err != nil {
			return res, nil, nil, fmt.Errorf("output check: %w", err)
		}
		traced, untraced := &timing{}, &timing{}
		for i, s := range all.segs {
			if i%2 == 0 {
				traced.segs = append(traced.segs, s)
			} else {
				untraced.segs = append(untraced.segs, s)
			}
		}
		// What the live heap gained, less the recorder's own spans.
		live := liveHeap() - live0 - int64(cap(rec.spans))*int64(unsafe.Sizeof(span{}))
		lc := layerCtx{
			ref: ref, spans: rec.spans, delta: delta, ops: res.Attempted, all: all,
			tracedWall: traced.workWall(), liveKB: float64(live) / 1024,
		}
		own, err := w.layers(lc)
		if err != nil {
			return res, nil, nil, fmt.Errorf("layer metrics: %w", err)
		}
		emitWorkloadMetrics(gated, own)
		genericLayers(gated, lc)
		gated.add("trace.overhead_frac", "frac", traced.opCostRef()/untraced.opCostRef()-1)
		if err := priceList(gated, cfg); err != nil {
			return res, nil, nil, fmt.Errorf("layer price list: %w", err)
		}
		hostFigures(gated, w, untraced, all)
		path := fmt.Sprintf("%s/trace_%s.jsonl", cfg.outDir, cfg.workload)
		if err := writeJSONL(path, rec.spans); err != nil {
			return res, nil, nil, err
		}
	}
	res.Correct = true
	res.Metrics = gated.values
	return res, gated, info, nil
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// opSampler is implemented by workloads that time each op themselves;
// the others' samples are their segments' means.
type opSampler interface{ opMillis() []float64 }

// hostFigures adds the raw, un-normalised host numbers. They swing with
// the host's speed by ±10–15 % and gate nothing. Throughput and latency
// come from the untraced segments in t, the rest from the whole stretch.
func hostFigures(m *metricSet, w workload, t, whole *timing) {
	attempted, _ := t.ops()
	perOpMS := t.each(func(s segment) float64 { return float64(s.wall) / 1e6 / float64(s.ops) })
	if s, ok := w.(opSampler); ok {
		perOpMS = s.opMillis()
	}
	m.add("bench.ops_per_s", "1/s", float64(attempted)/t.workWall().Seconds())
	m.add("bench.op_ms_p50", "ms", median(perOpMS))
	m.add("bench.op_ms_p99", "ms", p99("bench.op_ms_p99", perOpMS))
	m.add("bench.samples", "count", float64(len(perOpMS)))
	m.add("bench.ref_us", "us", whole.refUS())
	m.add("bench.ref_drift_frac", "frac", whole.refDriftFrac())
	m.add("bench.calib_share", "frac", whole.calibShare())
	m.add("bench.gc_cycles", "count", float64(whole.gcCycles))
	m.add("bench.gc_pause_ms", "ms", float64(whole.gcPauseNS)/1e6)
	all, failed := whole.ops()
	m.add("bench.fail_frac", "frac", float64(failed)/float64(all))
}

// printTable writes "name value unit" rows; _us figures are also shown in
// refops at the run's median host speed.
func printTable(w io.Writer, title string, m *metricSet) {
	fmt.Fprintf(w, "# %s\n", title)
	refUS := m.values["bench.ref_us"].Value
	for _, name := range m.names {
		v := m.values[name]
		fmt.Fprintf(w, "%-34s %16.6g %s", name, v.Value, v.Unit)
		if refUS > 0 && v.Unit == "us" && name != "bench.ref_us" {
			fmt.Fprintf(w, "  (%.4g refop)", v.Value/refUS)
		}
		fmt.Fprintln(w)
	}
}

func main() {
	var cfg config
	var trace int
	var agree bool
	var bench, out string
	flag.StringVar(&cfg.workload, "workload", "", "session_real, storm_emu, scale_emu or drive_emu")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 28, "measuring time")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.outDir, "outdir", "benchmark/out", "directory for trace_<workload>.jsonl")
	flag.StringVar(&out, "out", "", "append the result, labelled with workload and seed, to this JSON-lines file")
	flag.BoolVar(&agree, "agree", false, "compare two result files (from -out) against the bounds in -bench")
	flag.StringVar(&bench, "bench", "BENCHMARK.json", "metric contract read by -agree")
	flag.Parse()

	if agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree needs two result files"))
		}
		ok, err := agreeFiles(os.Stdout, bench, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg.trace = trace != 0
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	res, gated, info, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stdout, fmt.Sprintf("%s seed=%d trace=%d attempted=%d failed=%d", cfg.workload, cfg.seed, trace, res.Attempted, res.Failed), gated)
	if len(info.names) > 0 {
		printTable(os.Stdout, "host figures (gate nothing)", info)
	}
	if out != "" {
		if err := appendResult(out, cfg, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
