package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCbbench compiles the command once into a temp dir.
func buildCbbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cbbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFailoverOutputUnchangedByTracing is the CLI acceptance test for the
// telemetry-determinism contract: `-exp failover` renders byte-identically
// whether or not a trace is being recorded.
func TestFailoverOutputUnchangedByTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCbbench(t)
	args := []string{"-exp", "failover", "-seed", "7", "-dur", "75s"}

	plain, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}

	tracePath := filepath.Join(t.TempDir(), "trace.json")
	traced, err := exec.Command(bin, append(args, "-trace-out", tracePath)...).Output()
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}

	// The traced run appends one "wrote N trace events" status line; the
	// experiment output above it must match byte for byte.
	tracedStr := string(traced)
	if i := strings.Index(tracedStr, "wrote "); i >= 0 {
		tracedStr = tracedStr[:i]
	}
	if string(plain) != tracedStr {
		t.Fatalf("tracing changed the experiment output:\n--- untraced ---\n%s--- traced ---\n%s", plain, tracedStr)
	}

	// And the trace itself is a valid, non-empty Chrome trace-event array.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestReadmeFlagTableMatchesHelp keeps the README's cbbench flag table and
// the binary's own -h listing naming the same flags, in both directions.
func TestReadmeFlagTableMatchesHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	help, err := exec.Command(buildCbbench(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("cbbench -h: %v\n%s", err, help)
	}
	inHelp := map[string]bool{}
	for _, line := range strings.Split(string(help), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			inHelp[strings.Fields(name)[0]] = true
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### `cbbench`")
	if !ok {
		t.Fatal("README has no cbbench flag section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	inReadme := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		// The first cell may group flags: `-a` / `-b`, or `-a/-b/-c`.
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, name := range strings.FieldsFunc(cell, func(r rune) bool { return r == '`' || r == '/' || r == ' ' }) {
			inReadme[strings.TrimPrefix(name, "-")] = true
		}
	}

	if len(inHelp) == 0 || len(inReadme) == 0 {
		t.Fatalf("parsed %d flags from -h and %d from the README", len(inHelp), len(inReadme))
	}
	for name := range inHelp {
		if !inReadme[name] {
			t.Errorf("flag -%s is in cbbench -h but not in the README table", name)
		}
	}
	for name := range inReadme {
		if !inHelp[name] {
			t.Errorf("flag -%s is in the README table but not in cbbench -h", name)
		}
	}
}
