package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// labelled is one line of a result file: a run's result with the inputs
// that produced it.
type labelled struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendResult(path string, cfg config, res result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(labelled{cfg.workload, cfg.seed, cfg.trace, res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResults(path string) ([]labelled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []labelled
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l labelled
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// contract is the part of BENCHMARK.json -agree needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreeFiles compares two sets of runs of the same code, metric by metric
// and workload by workload, against the bounds of the contract: the second
// set's median may not be worse than the first's by more than the bound,
// and (except for setup_s) neither set's quartile spread may exceed it. It
// prints every pairing and reports whether all of them held.
func agreeFiles(w io.Writer, contractPath, pathA, pathB string) (bool, error) {
	c, err := readContract(contractPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	values := func(set []labelled, workload, metric string) []float64 {
		var xs []float64
		for _, l := range set {
			if v, ok := l.Result.Metrics[metric]; ok && l.Workload == workload && !l.Trace {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	ok := true
	first := ""
	fmt.Fprintf(w, "%-13s %-16s %5s  %-38s %-38s %8s %7s %7s  %s\n",
		"workload", "metric", "n", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "spread", "bound", "")
	for _, wl := range c.Workloads {
		for _, e := range c.EndToEnd {
			xa, xb := values(a, wl.Name, e.Name), values(b, wl.Name, e.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s %s: no runs in one of the sets", wl.Name, e.Name)
			}
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			worse := worsening(ma, mb, e.Better)
			spread := max((a3-a1)/ma, (b3-b1)/mb)
			verdict := "ok"
			if worse > e.Bound || (e.Name != "setup_s" && spread > e.Bound) {
				verdict = "OUT OF BOUND"
				ok = false
				if first == "" {
					first = wl.Name + " " + e.Name
				}
			}
			fmt.Fprintf(w, "%-13s %-16s %2d/%-2d  %-38s %-38s %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				wl.Name, e.Name, len(xa), len(xb),
				fmt.Sprintf("%.6g [%.6g, %.6g]", ma, a1, a3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", mb, b1, b3),
				100*worse, 100*spread, 100*e.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintf(w, "first pairing out of bound: %s\n", first)
	}
	return ok, nil
}
