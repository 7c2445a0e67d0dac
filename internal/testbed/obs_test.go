package testbed

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/chaos"
	"cellbricks/internal/obs"
)

// TestFailoverTraceDoesNotPerturb is the telemetry-determinism acceptance
// test: tracing a failover run must not change its rendered output by a
// byte — recording observes the simulation, never participates in it.
func TestFailoverTraceDoesNotPerturb(t *testing.T) {
	spec, err := chaos.ParseSpec("flap=1x3s,broker=1x10s,crash=1x6s")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FailoverConfig{Seed: 7, Duration: 75 * time.Second, Spec: spec}
	plain, err := RunFailover(cfg)
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}

	cfg.Tracer = obs.NewTracer(0, nil)
	traced, err := RunFailover(cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if p, q := plain.Render(), traced.Render(); p != q {
		t.Fatalf("tracing perturbed the run:\n--- untraced ---\n%s--- traced ---\n%s", p, q)
	}
	if cfg.Tracer.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestFailoverTraceDerivesRecovery asserts the trace is self-sufficient:
// outage-to-recovery per fault, recomputed from fault/recovered event
// pairs alone, matches the result's Outcomes exactly.
func TestFailoverTraceDerivesRecovery(t *testing.T) {
	spec, err := chaos.ParseSpec("flap=1x3s,pause=1x800ms,broker=1x10s,crash=1x6s")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0, nil)
	cfg := FailoverConfig{Seed: 7, Duration: 75 * time.Second, Spec: spec, Tracer: tr}
	res, err := RunFailover(cfg)
	if err != nil {
		t.Fatalf("RunFailover: %v", err)
	}

	faultAt := map[string]time.Duration{}
	recoveredAt := map[string]time.Duration{}
	for _, e := range tr.Events() {
		if e.Cat != "chaos" {
			continue
		}
		switch e.Name {
		case "fault":
			faultAt[e.Args["i"]] = e.Start
		case "recovered":
			if _, seen := recoveredAt[e.Args["i"]]; !seen {
				recoveredAt[e.Args["i"]] = e.Start
			}
		}
	}
	if len(faultAt) != len(res.Outcomes) {
		t.Fatalf("trace has %d fault events, result has %d outcomes", len(faultAt), len(res.Outcomes))
	}
	for i, o := range res.Outcomes {
		key := strconv.Itoa(i)
		at, ok := faultAt[key]
		if !ok || at != o.At {
			t.Fatalf("fault %d: trace onset %v (present=%v), result %v", i, at, ok, o.At)
		}
		rec, ok := recoveredAt[key]
		if ok != o.Recovered {
			t.Fatalf("fault %d: trace recovered=%v, result recovered=%v", i, ok, o.Recovered)
		}
		if o.Recovered && rec-at != o.Recovery {
			t.Fatalf("fault %d: trace-derived recovery %v, result %v", i, rec-at, o.Recovery)
		}
	}
}

// TestDebugEndpointsScrapeWireTraffic is the end-to-end exposition test: a
// real-socket deployment serves attaches over TCP while a debug server
// exposes the default registry; scraping /metrics must show the wire frame
// counters moving.
func TestDebugEndpointsScrapeWireTraffic(t *testing.T) {
	srv, err := obs.ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scrape := func() map[string]float64 {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			var name string
			var v float64
			if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
				out[name] = v
			}
		}
		return out
	}
	before := scrape()

	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
		t.Fatalf("attach: %v", err)
	}

	after := scrape()
	for _, name := range []string{"wire_frames_sent_total", "wire_frames_received_total", "epc_attaches_total"} {
		if after[name] <= before[name] {
			t.Errorf("%s did not move: before=%v after=%v", name, before[name], after[name])
		}
	}
}

// TestFailoverSpanTreeAndTimelines is the causal-tracing acceptance test:
// one traced failover run yields, for every successful attach, a span tree
// where the ue, wire, epc, broker, and billing spans share the storm's
// trace ID and parent back to its root — and the rendered timelines are
// byte-identical across re-runs.
func TestFailoverSpanTreeAndTimelines(t *testing.T) {
	spec, err := chaos.ParseSpec("flap=1x3s,broker=1x10s,crash=1x6s")
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]obs.TraceEvent, string, string) {
		tr := obs.NewTracer(0, nil)
		cfg := FailoverConfig{Seed: 7, Duration: 75 * time.Second, Spec: spec, Tracer: tr}
		if _, err := RunFailover(cfg); err != nil {
			t.Fatal(err)
		}
		evs := tr.Events()
		var jl, tl bytes.Buffer
		if err := obs.WriteJSONLEvents(&jl, evs); err != nil {
			t.Fatal(err)
		}
		if err := obs.RenderTimelines(&tl, obs.BuildTimelines(evs)); err != nil {
			t.Fatal(err)
		}
		return evs, jl.String(), tl.String()
	}

	evs, jsonl1, tl1 := run()
	_, jsonl2, tl2 := run()
	if jsonl1 != jsonl2 {
		t.Fatal("trace JSONL differs between two runs")
	}
	if tl1 != tl2 {
		t.Fatalf("timelines differ between two runs:\n%s\n---\n%s", tl1, tl2)
	}
	if !strings.Contains(tl1, "session s0") || !strings.Contains(tl1, "outcome=ok") {
		t.Fatalf("timeline missing initial session:\n%s", tl1)
	}

	// Index spans and roots; every identified span's parent chain must
	// terminate at its own trace's root.
	spans := map[uint64]obs.TraceEvent{}
	roots := map[uint64]obs.TraceEvent{} // trace id -> root record
	for _, e := range evs {
		if e.Trace == 0 {
			continue
		}
		if _, dup := spans[e.Span]; dup {
			t.Fatalf("duplicate span id %#x", e.Span)
		}
		spans[e.Span] = e
		if e.Parent == 0 {
			if _, dup := roots[e.Trace]; dup {
				t.Fatalf("trace %#x has two roots", e.Trace)
			}
			if e.Cat != "attach" || e.Name != "attach-storm" {
				t.Fatalf("root is %s/%s, want attach/attach-storm", e.Cat, e.Name)
			}
			roots[e.Trace] = e
		}
	}
	if len(roots) == 0 {
		t.Fatal("no attach-storm roots recorded")
	}
	catsByTrace := map[uint64]map[string]bool{}
	for _, e := range spans {
		if catsByTrace[e.Trace] == nil {
			catsByTrace[e.Trace] = map[string]bool{}
		}
		catsByTrace[e.Trace][e.Cat] = true
		// Walk to the root.
		cur, hops := e, 0
		for cur.Parent != 0 {
			p, ok := spans[cur.Parent]
			if !ok {
				t.Fatalf("span %s/%s parent %#x missing", e.Cat, e.Name, cur.Parent)
			}
			if p.Trace != e.Trace {
				t.Fatalf("span %s/%s crosses traces", e.Cat, e.Name)
			}
			cur = p
			if hops++; hops > 16 {
				t.Fatal("parent chain does not terminate")
			}
		}
		if cur.Span != roots[e.Trace].Span {
			t.Fatalf("span %s/%s does not chain to its trace root", e.Cat, e.Name)
		}
	}
	okTraces := 0
	for trace, root := range roots {
		if root.Args["outcome"] != "ok" {
			continue
		}
		okTraces++
		for _, cat := range []string{"ue", "wire", "epc", "broker", "billing"} {
			if !catsByTrace[trace][cat] {
				t.Errorf("successful attach trace %#x missing %q span (has %v)", trace, cat, catsByTrace[trace])
			}
		}
	}
	if okTraces == 0 {
		t.Fatal("no successful attach traces")
	}
}

// TestRealDeploymentTracePropagation: one traced attach over real TCP
// sockets produces a single parented span tree — ue, sap, broker, epc and
// billing spans all under one trace ID, with the broker's span recorded
// server-side from the wire frame's span context.
func TestRealDeploymentTracePropagation(t *testing.T) {
	tr := obs.NewTracer(99, nil)
	d, err := NewRealDeploymentTraced(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	root := tr.NewTrace()
	dev.TraceAttach(tr, root)
	if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
		t.Fatal(err)
	}

	spans := map[uint64]obs.TraceEvent{}
	cats := map[string]bool{}
	for _, e := range tr.Events() {
		if e.Trace == 0 {
			continue
		}
		if e.Trace != root.Trace {
			t.Fatalf("span %s/%s on foreign trace %x (want %x)", e.Cat, e.Name, e.Trace, root.Trace)
		}
		if _, dup := spans[e.Span]; dup {
			t.Fatalf("duplicate span id %x", e.Span)
		}
		spans[e.Span] = e
		cats[e.Cat] = true
	}
	for _, want := range []string{"ue", "sap", "broker", "epc", "billing"} {
		if !cats[want] {
			t.Fatalf("no %q span in trace (got cats %v)", want, cats)
		}
	}
	for _, e := range spans {
		hops := 0
		for cur := e; cur.Parent != 0; hops++ {
			if hops > 16 {
				t.Fatalf("parent chain of %s/%s does not terminate", e.Cat, e.Name)
			}
			if cur.Parent == root.Span {
				break
			}
			next, ok := spans[cur.Parent]
			if !ok {
				t.Fatalf("span %s/%s parent %x not in trace", cur.Cat, cur.Name, cur.Parent)
			}
			cur = next
		}
	}
}

// newTracer is a wall-clock tracer; the runs it is handed rebind it to
// their simulator's clock and seed.
func newTracer() *obs.Tracer { return obs.NewTracer(0, nil) }
