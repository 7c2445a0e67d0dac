package cellbricks

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchWallTimesOnly are the BENCH files written before a claim had to be a
// row: they hold cbbench wall times ("runs") and no benchmark array.
var benchWallTimesOnly = map[string]bool{
	"BENCH_2026-08-06.json":              true,
	"BENCH_2026-08-08.json":              true,
	"BENCH_2026-08-08_shards.json":       true,
	"BENCH_2026-08-08_storm.json":        true,
	"BENCH_2026-09-29.json":              true,
	"BENCH_2026-09-29_attach.json":       true,
	"BENCH_2026-10-01_seal.json":         true,
	"BENCH_2026-10-01_ticket.json":       true,
	"BENCH_2026-10-02_onedriver.json":    true,
	"BENCH_2026-10-02_pass.json":         true,
	"BENCH_2026-10-02_reports.json":      true,
	"BENCH_2026-10-15_firstcontact.json": true,
	"BENCH_2026-10-15_storm.json":        true,
	"BENCH_2026-10-15_tallies.json":      true,
	"BENCH_2026-10-16_cachelines.json":   true,
}

// benchSet is one labelled set of repository-benchmark runs in a BENCH
// file: the verbatim lines `go run ./benchmark -out` appended, and what
// they were measured on. A traced line (`--trace 1`) carries the
// per-layer metrics only.
type benchSet struct {
	Label      string `json:"label"` // "parent" or "change"
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seconds    int    `json:"seconds"`
	Lines      []struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
		Result   struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"result"`
	} `json:"lines"`
}

// TestBenchRowsArePaired fails on a BENCH_*.json file that holds no
// "benchmark" array (the files of benchWallTimesOnly aside), on a set in one
// that lacks its label, commit, gomaxprocs or run length, on a run that did
// not pass its output checks, and on a (gomaxprocs, workload, seed) run under
// one label with no partner under the other: a claim compares two commits
// run by run, so every run of the change needs its parent's.
func TestBenchRowsArePaired(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Benchmark []benchSet `json:"benchmark"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(doc.Benchmark) == 0 {
			if !benchWallTimesOnly[p] {
				t.Errorf("%s has no \"benchmark\" array: record the claim's parent and change runs there", p)
			}
			continue
		}
		type run struct {
			procs    int
			workload string
			seed     int64
		}
		labels := map[run]map[string]bool{}
		for i, s := range doc.Benchmark {
			if (s.Label != "parent" && s.Label != "change") || s.Commit == "" || s.GOMAXPROCS <= 0 || s.Seconds <= 0 || len(s.Lines) == 0 {
				t.Errorf("%s: set %d wants label parent or change, a commit, gomaxprocs, seconds and lines: %q %q %d %d, %d lines", p, i, s.Label, s.Commit, s.GOMAXPROCS, s.Seconds, len(s.Lines))
				continue
			}
			for _, l := range s.Lines {
				if l.Workload == "" || !l.Result.Correct || l.Result.Attempted == 0 {
					t.Errorf("%s: set %d holds a run with no workload, or that failed its output checks: %+v", p, i, l)
				}
				r := run{s.GOMAXPROCS, l.Workload, l.Seed}
				if labels[r] == nil {
					labels[r] = map[string]bool{}
				}
				labels[r][s.Label] = true
				rows++
			}
		}
		for r, l := range labels {
			if !l["parent"] || !l["change"] {
				t.Errorf("%s: %s seed %d at gomaxprocs %d has a run under %v only", p, r.workload, r.seed, r.procs, l)
			}
		}
	}
	for p := range benchWallTimesOnly {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s is listed as wall-times-only but is gone: drop the entry", p)
		}
	}
	t.Logf("%d BENCH files, %d benchmark runs checked", len(files), rows)
}

// benchClaim is one figure a BENCH file states about its own rows: how a
// metric of one workload moved from the parent commit's runs to the
// change's, at one gomaxprocs. The figures are JSON numbers checked at the
// precision they are printed with.
type benchClaim struct {
	ID         string `json:"id"`
	Workload   string `json:"workload"`
	Metric     string `json:"metric"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Parent     string `json:"parent"` // commits: the sets' "commit"
	Change     string `json:"change"`
	// Statistic names what Value is: "ratio_of_medians" (the change's
	// median over the parent's) or "median_of_pair_ratios" (the median of
	// change over parent, seed by seed).
	Statistic    string      `json:"statistic"`
	Value        json.Number `json:"value"`
	ParentMedian json.Number `json:"parent_median"`
	ChangeMedian json.Number `json:"change_median"`
	Pairs        int         `json:"pairs"`
	PairsWon     int         `json:"pairs_won"` // pairs where the change's run is the better one
}

// TestBenchClaimsRecompute recomputes every claim of every BENCH_*.json
// file from the runs it holds and fails on a figure that differs at its
// printed precision, or on a claim whose runs are missing. Which way is
// better comes from BENCHMARK.json.
func TestBenchClaimsRecompute(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	better := map[string]string{}
	for _, m := range append(contract.EndToEnd, contract.PerLayer...) {
		better[m.Name] = m.Better
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	claims := 0
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Benchmark []benchSet   `json:"benchmark"`
			Claims    []benchClaim `json:"claims"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		for _, c := range doc.Claims {
			if err := checkClaim(doc.Benchmark, c, better[c.Metric]); err != nil {
				t.Errorf("%s: claim %q: %v", p, c.ID, err)
			}
			claims++
		}
	}
	t.Logf("%d claims recomputed", claims)
}

// checkClaim recomputes c from the untraced lines of sets; better is
// "lower" or "higher".
func checkClaim(sets []benchSet, c benchClaim, better string) error {
	if better != "lower" && better != "higher" {
		return fmt.Errorf("metric %q is not in BENCHMARK.json", c.Metric)
	}
	commit := map[string]string{"parent": c.Parent, "change": c.Change}
	runs := map[string]map[int64]float64{"parent": {}, "change": {}}
	for _, s := range sets {
		if s.Commit != commit[s.Label] || s.GOMAXPROCS != c.GOMAXPROCS {
			continue
		}
		for _, l := range s.Lines {
			if l.Workload != c.Workload || l.Trace {
				continue
			}
			m, ok := l.Result.Metrics[c.Metric]
			if !ok {
				return fmt.Errorf("the %s run of seed %d has no %s", s.Label, l.Seed, c.Metric)
			}
			if _, dup := runs[s.Label][l.Seed]; dup {
				return fmt.Errorf("seed %d runs twice under %s", l.Seed, s.Label)
			}
			runs[s.Label][l.Seed] = m.Value
		}
	}
	var parent, change, ratios []float64
	won := 0
	for seed, p := range runs["parent"] {
		ch, ok := runs["change"][seed]
		if !ok {
			continue // an unpaired run is TestBenchRowsArePaired's to report
		}
		parent, change, ratios = append(parent, p), append(change, ch), append(ratios, ch/p)
		if better == "lower" && ch < p || better == "higher" && ch > p {
			won++
		}
	}
	if len(parent) == 0 {
		return fmt.Errorf("no %s pairs of %s at gomaxprocs %d under %s and %s", c.Workload, c.Metric, c.GOMAXPROCS, c.Parent, c.Change)
	}
	var value float64
	switch c.Statistic {
	case "ratio_of_medians":
		value = median(change) / median(parent)
	case "median_of_pair_ratios":
		value = median(ratios)
	default:
		return fmt.Errorf("statistic %q is neither ratio_of_medians nor median_of_pair_ratios", c.Statistic)
	}
	for _, f := range []struct {
		name   string
		stated json.Number
		got    float64
	}{{"value", c.Value, value}, {"parent_median", c.ParentMedian, median(parent)}, {"change_median", c.ChangeMedian, median(change)}} {
		if got := printedAs(f.stated, f.got); got != string(f.stated) {
			return fmt.Errorf("%s states %s, the rows give %s", f.name, f.stated, got)
		}
	}
	if c.Pairs != len(parent) || c.PairsWon != won {
		return fmt.Errorf("states %d of %d pairs won, the rows give %d of %d", c.PairsWon, c.Pairs, won, len(parent))
	}
	return nil
}

// printedAs formats v with as many decimals as stated has.
func printedAs(stated json.Number, v float64) string {
	decimals := 0
	if i := strings.IndexByte(string(stated), '.'); i >= 0 {
		decimals = len(stated) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// median is the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
