package obs

import (
	"encoding/json"
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
	root := SpanContext{Trace: 9, Span: 9}
	if !root.Valid() {
		t.Fatalf("root context must be valid")
	}
	child := root.Child(33)
	if child.Trace != 9 || child.Span != 33 || child.Parent != 9 {
		t.Fatalf("bad child: %+v", child)
	}
	grand := child.Child(44)
	if grand.Trace != 9 || grand.Parent != 33 {
		t.Fatalf("bad grandchild: %+v", grand)
	}
}

// TestSpanIDSourceDeterminism pins the ID scheme: same seed, same sequence
// of calls, same IDs — and distinct seeds diverge.
func TestSpanIDSourceDeterminism(t *testing.T) {
	a, b := NewSpanIDSource(7), NewSpanIDSource(7)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		ia, ib := a.Next(), b.Next()
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
	if NewSpanIDSource(8).Next() == NewSpanIDSource(7).Next() {
		t.Fatalf("different seeds produced the same first ID")
	}
	root := NewSpanIDSource(7).NewTrace()
	if !root.Valid() || root.Trace != root.Span || root.Parent != 0 {
		t.Fatalf("bad root context: %+v", root)
	}
	var nilSrc *SpanIDSource
	if nilSrc.Next() != 0 {
		t.Fatalf("nil source must mint 0")
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
	tr := NewTracer(func() time.Duration { return now })
	ids := NewSpanIDSource(3)
	root := ids.NewTrace()
	child := root.Child(ids.Next())

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
