package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", "frames")
	c.Add(1)
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("frames_total", "other help"); again != c {
		t.Fatalf("re-registering returned a different handle")
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(1)
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("a nil counter must read zero")
	}
	var tr *Tracer
	tr.Event("cat", "name", nil)
	tr.SpanCtx(SpanContext{}, "cat", "name", 0, time.Second, nil)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatalf("nil tracer must record nothing")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire_frames_total", "frames exchanged").Add(3)
	r.Counter("attaches_total", "").Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "# TYPE attaches_total counter\nattaches_total 2\n" +
		"# HELP wire_frames_total frames exchanged\n# TYPE wire_frames_total counter\nwire_frames_total 3\n"
	if out != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	c.Add(5)
	prev := r.Snapshot()
	c.Add(7)
	r.Counter("b_total", "").Add(3)
	r.Counter("idle_total", "")
	d := Delta(prev, r.Snapshot())
	if d["a_total"] != 7 {
		t.Fatalf("delta a_total = %v, want 7", d["a_total"])
	}
	if d["b_total"] != 3 {
		t.Fatalf("delta b_total = %v, want 3", d["b_total"])
	}
	if _, ok := d["idle_total"]; ok {
		t.Fatalf("zero delta kept")
	}
	if _, ok := d["a_totalother"]; ok {
		t.Fatalf("unexpected key in delta")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}
