package cellbricks

import (
	"encoding/json"
	"os"
	"path/filepath"
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
// they were measured on.
type benchSet struct {
	Label      string `json:"label"` // "parent" or "change"
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seconds    int    `json:"seconds"`
	Lines      []struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Result   struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
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
