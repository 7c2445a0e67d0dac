package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSpanContextCodecRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: 0xdeadbeefcafef00d, Span: 42, Parent: 7}
	b := AppendSpanContext(nil, sc)
	if len(b) != SpanContextLen {
		t.Fatalf("encoded length = %d, want %d", len(b), SpanContextLen)
	}
	got, err := DecodeSpanContext(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("round trip %+v != %+v", got, sc)
	}
	if _, err := DecodeSpanContext(b[:SpanContextLen-1]); err == nil {
		t.Fatalf("truncated context must not decode")
	}
}

func TestSpanContextValidAndChild(t *testing.T) {
	var zero SpanContext
	if zero.Valid() {
		t.Fatalf("zero context must be invalid")
	}
	tr := NewTracer(7, nil)
	root := tr.NewTrace()
	if !root.Valid() {
		t.Fatalf("root context must be valid")
	}
	child := tr.Child(root)
	if child.Trace != root.Trace || child.Span == 0 || child.Span == root.Span || child.Parent != root.Span {
		t.Fatalf("bad child of %+v: %+v", root, child)
	}
	grand := tr.Child(child)
	if grand.Trace != root.Trace || grand.Parent != child.Span {
		t.Fatalf("bad grandchild: %+v", grand)
	}
	if tr.Child(zero).Valid() {
		t.Fatalf("an untraced parent must have untraced children")
	}
	var none *Tracer
	if none.NewTrace().Valid() || none.Child(root).Valid() {
		t.Fatalf("a nil tracer must mint only zero contexts")
	}
}

// TestSpanIDSourceDeterminism pins the ID scheme: same seed, same sequence
// of calls, same IDs — distinct seeds diverge, and Rebind restarts the
// stream at its seed.
func TestSpanIDSourceDeterminism(t *testing.T) {
	a, b := NewTracer(7, nil), NewTracer(7, nil)
	root := a.NewTrace()
	if root != b.NewTrace() || !root.Valid() || root.Trace != root.Span || root.Parent != 0 {
		t.Fatalf("bad root context: %+v", root)
	}
	seen := map[uint64]bool{root.Span: true}
	for i := 0; i < 1000; i++ {
		ia, ib := a.Child(root).Span, b.Child(root).Span
		if ia != ib {
			t.Fatalf("call %d: same seed diverged: %x vs %x", i, ia, ib)
		}
		if ia == 0 {
			t.Fatalf("call %d: zero span ID", i)
		}
		if seen[ia] {
			t.Fatalf("call %d: duplicate span ID %x", i, ia)
		}
		seen[ia] = true
	}
	if NewTracer(8, nil).NewTrace() == NewTracer(7, nil).NewTrace() {
		t.Fatalf("different seeds produced the same first ID")
	}
	a.Rebind(7, nil)
	if again := a.NewTrace(); again != root {
		t.Fatalf("after Rebind the stream restarts: got %+v, want %+v", again, root)
	}
}

// TestTracerSpanTimesAndRecordsAChild checks the one wrapper every traced
// layer uses: f runs, its span is a child of the parent timed on the
// tracer's clock and minted after f's own spans, a failure adds an
// "error" arg, and an untraced parent only runs f.
func TestTracerSpanTimesAndRecordsAChild(t *testing.T) {
	var now time.Duration
	tr := NewTracer(5, func() time.Duration { return now })
	root := tr.NewTrace()
	var inner SpanContext
	boom := errors.New("boom")
	err := tr.Span(root, "epc", "step", map[string]string{"ran": "r1"}, func() error {
		inner = tr.Child(root)
		now += 3
		return boom
	})
	if err != boom {
		t.Fatalf("Span returned %v, want f's error", err)
	}
	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	e := ev[0]
	if e.Trace != root.Trace || e.Parent != root.Span || e.Span == inner.Span || e.Start != 0 || e.Dur != 3 {
		t.Fatalf("bad span %+v (root %+v)", e, root)
	}
	if e.Args["ran"] != "r1" || e.Args["error"] != "boom" {
		t.Fatalf("args = %v", e.Args)
	}
	// The ID stream: root, f's child, then the span's own.
	want := NewTracer(5, nil)
	want.NewTrace()
	want.Child(root)
	if e.Span != want.Child(root).Span {
		t.Fatalf("span ID %x was not minted after f's", e.Span)
	}

	ran := 0
	for _, tt := range []*Tracer{tr, nil} {
		if err := tt.Span(SpanContext{}, "x", "y", nil, func() error { ran++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if ran != 2 || tr.Len() != 1 {
		t.Fatalf("untraced Span ran f %d times and recorded %d events", ran, tr.Len())
	}
}

func TestParseTraceID(t *testing.T) {
	id := uint64(0x00ab12cd34ef5678)
	for _, s := range []string{TraceIDString(id), "0xab12cd34ef5678", "ab12cd34ef5678", " 00ab12cd34ef5678 "} {
		got, err := ParseTraceID(s)
		if err != nil {
			t.Fatalf("ParseTraceID(%q): %v", s, err)
		}
		if got != id {
			t.Fatalf("ParseTraceID(%q) = %x, want %x", s, got, id)
		}
	}
	// Pure-decimal strings parse as decimal.
	if got, err := ParseTraceID("12345"); err != nil || got != 12345 {
		t.Fatalf("decimal parse = %d, %v", got, err)
	}
	if _, err := ParseTraceID("not-an-id"); err == nil {
		t.Fatalf("junk must not parse")
	}
}

func TestFilterTrace(t *testing.T) {
	events := []TraceEvent{
		{Cat: "a", Name: "x", Trace: 1, Span: 1},
		{Cat: "b", Name: "y"},
		{Cat: "c", Name: "z", Trace: 2, Span: 2},
		{Cat: "d", Name: "w", Trace: 1, Span: 3, Parent: 1},
	}
	got := FilterTrace(events, 1)
	if len(got) != 2 || got[0].Name != "x" || got[1].Name != "w" {
		t.Fatalf("bad filter result: %+v", got)
	}
	if FilterTrace(events, 99) != nil {
		t.Fatalf("missing trace should filter to nil")
	}
}

// TestTracerSpanContextRecords checks ctx-carrying records land with their
// IDs and serialize with the trace_id/span_id/parent_id keys, while id-less
// records keep the pre-context serialization (no id keys at all).
func TestTracerSpanContextRecords(t *testing.T) {
	var now time.Duration
	tr := NewTracer(3, func() time.Duration { return now })
	root := tr.NewTrace()
	child := tr.Child(root)

	tr.SpanCtx(root, "ue", "attach", 0, 10, map[string]string{"session": "s1"})
	tr.SpanCtx(child, "sap", "auth", now, 0, nil)
	tr.Event("chaos", "fault", nil)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	if ev[0].Trace != root.Trace || ev[0].Span != root.Span || ev[0].Parent != 0 {
		t.Fatalf("root ids wrong: %+v", ev[0])
	}
	if ev[1].Trace != root.Trace || ev[1].Parent != root.Span {
		t.Fatalf("child ids wrong: %+v", ev[1])
	}
	if ev[2].Trace != 0 || ev[2].Span != 0 {
		t.Fatalf("plain event must carry no ids: %+v", ev[2])
	}
	withIDs, _ := json.Marshal(ev[0])
	if !strings.Contains(string(withIDs), `"trace_id"`) || !strings.Contains(string(withIDs), `"span_id"`) {
		t.Fatalf("ctx record missing id keys: %s", withIDs)
	}
	plain, _ := json.Marshal(ev[2])
	if strings.Contains(string(plain), "trace_id") {
		t.Fatalf("plain record must omit id keys: %s", plain)
	}
}
