package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles of 1..5 = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: positions clamp
	// to the ends and extrapolate.
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of 1..2 = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	v, ok := percentile(seq(1000), 99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 990 true", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it, must be unsupported")
	}
	v, ok = percentile(seq(40), 50)
	if v != 20 || !ok {
		t.Errorf("p50 of 1..40 = %v supported=%v, want 20 true", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing is unsupported")
	}
}

func TestRefCostAndSegmentMedian(t *testing.T) {
	if got := refCost(2000, 90, 110); !near(got, 20) {
		t.Errorf("refCost = %v, want 20", got)
	}
	// Three segments at host speeds 100, 200 and 50 ns per refop: each op
	// costs 10 refops of wall time whatever the speed, and the middle
	// segment also burned a second core.
	seg := func(ops int, ref float64, cpuFactor float64) segment {
		wall := time.Duration(float64(ops) * 10 * ref)
		return segment{
			ops: ops, wall: wall, cpu: time.Duration(float64(wall) * cpuFactor),
			before: refSample{ref, ref}, after: refSample{ref, ref},
		}
	}
	tm := &timing{segs: []segment{seg(100, 100, 1), seg(50, 200, 2), seg(100, 50, 1)}}
	if got := tm.opCostRef(); !near(got, 10) {
		t.Errorf("opCostRef = %v, want 10", got)
	}
	if got := tm.cpuCostRef(); !near(got, 10) { // median of 10, 20, 10
		t.Errorf("cpuCostRef = %v, want 10", got)
	}
	// A slow segment between two speeds is judged against their mean.
	s := segment{ops: 10, wall: 15000, before: refSample{wall: 100}, after: refSample{wall: 200}}
	if got := s.wallCost(); !near(got, 10) {
		t.Errorf("wallCost across a speed change = %v, want 10", got)
	}
	tm.segs[0].mallocs, tm.segs[1].mallocs, tm.segs[2].mallocs = 1000, 500, 1000
	if got := tm.allocsPerOp(); !near(got, 10) {
		t.Errorf("allocsPerOp = %v, want 10", got)
	}
	if got := tm.refDriftFrac(); !near(got, 3) { // 200/50 - 1
		t.Errorf("refDriftFrac = %v, want 3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a: [10,50] counts once
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 120},  // runs past its parent: clipped to 100
		{ID: 5, Parent: 3, Name: "b.x", Start: 25, End: 45}, // grandchild: only b loses it
	}
	want := []int64{100 - 40 - 30, 20, 30 - 20, 50, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestRecorderNestsAcrossGoroutines(t *testing.T) {
	r := newRecorder()
	r.setOp(7)
	endOuter := r.begin("outer")
	done := make(chan struct{})
	go func() { // a server goroutine handling the load goroutine's call
		defer close(done)
		r.begin("inner")()
	}()
	<-done
	endOuter()
	r.begin("next")()
	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	if r.spans[1].Parent != r.spans[0].ID || r.spans[2].Parent != 0 {
		t.Errorf("parents = %d, %d; want %d, 0", r.spans[1].Parent, r.spans[2].Parent, r.spans[0].ID)
	}
	for _, s := range r.spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("span %+v: want op 7 and end >= start", s)
		}
	}
	var nilRec *recorder
	nilRec.setOp(1)
	nilRec.begin("ignored")() // tracing off: no-ops
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEveryMetricOnce runs every workload in both modes at about
// 1/200 size and holds the output against BENCHMARK.json: each declared
// metric is printed exactly once, with the declared unit, and nothing else.
func TestSmokeEveryMetricOnce(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, want 4", len(c.Workloads))
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range c.EndToEnd {
		declared[false][e.Name] = e.Unit
	}
	for _, p := range c.PerLayer {
		declared[true][p.Name] = p.Unit
	}
	for _, wl := range c.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 3, seconds: 0.05, trace: trace, tiny: true, outDir: t.TempDir()}
			res, gated, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := declared[trace]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			var table bytes.Buffer
			printTable(&table, "smoke", gated)
			for name, unit := range want {
				if !metricName.MatchString(name) {
					t.Errorf("metric name %q is outside the contract's alphabet", name)
				}
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", wl.Name, trace, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", wl.Name, trace, name, got.Unit, unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl.Name, trace, name, got.Value)
				}
				rows := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` .* ` + regexp.QuoteMeta(unit) + `( |$)`)
				if n := len(rows.FindAllString(table.String(), -1)); n != 1 {
					t.Errorf("%s trace=%v: %s printed %d times with its unit, want once", wl.Name, trace, name, n)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: %s emitted but not declared", wl.Name, trace, name)
				}
			}
			if trace {
				path := filepath.Join(cfg.outDir, "trace_"+wl.Name+".jsonl")
				if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"name"`) {
					t.Errorf("%s: span file %s missing or empty (%v)", wl.Name, path, err)
				}
			}
		}
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	contract := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(contract, []byte(`{
		"workloads": [{"name": "w"}],
		"end_to_end": [
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
			{"name": "cost", "unit": "refop", "better": "lower", "bound": 0.05},
			{"name": "goodput", "unit": "Mbit/s", "better": "higher", "bound": 0.05}
		]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, setup, cost, goodput []float64) string {
		path := filepath.Join(dir, name)
		for i := range cost {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"setup_s": {setup[i], "s"}, "cost": {cost[i], "refop"}, "goodput": {goodput[i], "Mbit/s"},
			}}
			if err := appendResult(path, config{workload: "w", seed: int64(i)}, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{1, 2, 3}, []float64{10, 10.1, 9.9}, []float64{5, 5, 5})
	for _, tc := range []struct {
		name                 string
		setup, cost, goodput []float64
		want                 bool
		naming               string
	}{
		{"same", []float64{1, 2, 3}, []float64{10.2, 10.1, 10.3}, []float64{5, 5, 4.9}, true, ""},
		{"better is never out of bound", []float64{1, 1, 1}, []float64{5, 5, 5}, []float64{9, 9, 9}, true, ""},
		{"setup spread is not gated", []float64{0.5, 2, 4}, []float64{10, 10, 10}, []float64{5, 5, 5}, true, ""},
		{"cost worse", []float64{1, 2, 3}, []float64{10.6, 10.6, 10.6}, []float64{5, 5, 5}, false, "w cost"},
		{"cost spread", []float64{1, 2, 3}, []float64{9, 10, 11}, []float64{5, 5, 5}, false, "w cost"},
		{"higher-is-better worse", []float64{1, 2, 3}, []float64{10, 10, 10}, []float64{4.5, 4.5, 4.5}, false, "w goodput"},
		{"setup median worse", []float64{3, 3, 3}, []float64{10, 10, 10}, []float64{5, 5, 5}, false, "w setup_s"},
	} {
		var out bytes.Buffer
		got, err := agreeFiles(&out, contract, base, write(tc.name+".jsonl", tc.setup, tc.cost, tc.goodput))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: agree = %v, want %v\n%s", tc.name, got, tc.want, out.String())
		}
		if tc.naming != "" && !strings.Contains(out.String(), "first pairing out of bound: "+tc.naming) {
			t.Errorf("%s: output does not name %q:\n%s", tc.name, tc.naming, out.String())
		}
	}
}
