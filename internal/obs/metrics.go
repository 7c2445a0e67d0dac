// Package obs is the deterministic observability layer shared by every
// CellBricks component: a registry of lock-free counters, a span/event
// tracer that can run against either the discrete-event simulator clock or
// the wall clock, a leveled logger, and live debug endpoints (Prometheus
// text /metrics, expvar, pprof).
//
// Two properties are load-bearing and guarded by tests elsewhere in the
// repo:
//
//   - Zero perturbation: recording a metric or a trace event never touches
//     a seeded RNG, never schedules or reorders simulator events, and never
//     changes experiment output. The byte-identical golden tests in
//     internal/testbed and internal/netem run with telemetry enabled.
//   - Hot-path cost: a counter update is one atomic add; a nil handle is a
//     single branch. The netem delivery benchmark asserts <5% overhead
//     enabled-vs-disabled.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and nil-safe: a nil *Counter is a no-op handle, which is
// how a subsystem's telemetry is disabled without branching on a global.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a named collection of counters. Registration takes a mutex
// (it happens once per counter at package init); the returned handles
// update lock-free. The zero value is not usable; use NewRegistry or the
// package Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the wire, broker, epc, ue
// and netem packages register into.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it on first
// use. Re-registering returns the same handle (help from the first call
// wins).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Snapshot returns every counter's value under its name. Keys are stable,
// so two snapshots diff cleanly.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	return out
}

// Delta returns cur minus prev, dropping zero deltas — the per-run view the
// repository benchmark checks and reports.
func Delta(prev, cur map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), counters sorted by name so scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	var b strings.Builder
	for _, c := range counters {
		if c.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", c.name, c.help)
		}
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.Value())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
