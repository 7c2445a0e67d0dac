package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// syntheticAttachTrace builds a two-session trace shaped like the failover
// experiment's: per-session root span with phase children, plus unrelated
// id-less noise.
func syntheticAttachTrace() []TraceEvent {
	tr := NewTracer(11, nil)
	var out []TraceEvent
	addSession := func(label string, base time.Duration, outcome string) {
		root := tr.NewTrace()
		out = append(out, TraceEvent{
			Cat: "attach", Name: "attach-storm", Start: base, Dur: 30 * time.Millisecond,
			Trace: root.Trace, Span: root.Span,
			Args: map[string]string{"session": label, "outcome": outcome},
		})
		phase := func(cat, name string, off, dur time.Duration) {
			c := tr.Child(root)
			out = append(out, TraceEvent{
				Cat: cat, Name: name, Start: base + off, Dur: dur,
				Trace: c.Trace, Span: c.Span, Parent: c.Parent,
			})
		}
		phase("ran", "cell-select", 0, 2*time.Millisecond)
		phase("ue", "aka", 2*time.Millisecond, 8*time.Millisecond)
		phase("sap", "sap-auth", 10*time.Millisecond, 12*time.Millisecond)
		phase("epc", "bearer-setup", 22*time.Millisecond, 8*time.Millisecond)
		// A retry re-enters a phase: folds into the same row.
		phase("ue", "aka", 30*time.Millisecond, 4*time.Millisecond)
		// An instant carrying the ctx must not count as a phase.
		out = append(out, TraceEvent{
			Cat: "slo", Name: "breach-enter", Start: base, Instant: true,
			Trace: root.Trace, Span: root.Span,
		})
	}
	addSession("s0", 100*time.Millisecond, "ok")
	addSession("s1", 500*time.Millisecond, "giveup")
	out = append(out, TraceEvent{Cat: "chaos", Name: "fault", Start: 0, Instant: true})
	return out
}

func TestBuildTimelines(t *testing.T) {
	tls := BuildTimelines(syntheticAttachTrace())
	if len(tls) != 2 {
		t.Fatalf("timelines = %d, want 2", len(tls))
	}
	tl := tls[0]
	if tl.Session != "s0" || tl.Name != "attach-storm" || tl.Outcome != "ok" {
		t.Fatalf("bad timeline header: %+v", tl)
	}
	if tl.Spans != 6 { // root + 5 phase spans
		t.Fatalf("spans = %d, want 6", tl.Spans)
	}
	wantPhases := []struct {
		name  string
		dur   time.Duration
		count int
	}{
		{"cell-select", 2 * time.Millisecond, 1},
		{"aka", 12 * time.Millisecond, 2}, // 8ms + 4ms retry folded
		{"sap-auth", 12 * time.Millisecond, 1},
		{"bearer-setup", 8 * time.Millisecond, 1},
	}
	if len(tl.Phases) != len(wantPhases) {
		t.Fatalf("phases = %d, want %d: %+v", len(tl.Phases), len(wantPhases), tl.Phases)
	}
	for i, w := range wantPhases {
		p := tl.Phases[i]
		if p.Name != w.name || p.Dur != w.dur || p.Count != w.count {
			t.Fatalf("phase %d = %+v, want %+v", i, p, w)
		}
	}
	if tls[1].Session != "s1" || tls[1].Outcome != "giveup" {
		t.Fatalf("bad second timeline: %+v", tls[1])
	}
}

func TestTimelineSessionFallsBackToTraceID(t *testing.T) {
	root := NewTracer(1, nil).NewTrace()
	tls := BuildTimelines([]TraceEvent{
		{Cat: "a", Name: "op", Trace: root.Trace, Span: root.Span, Dur: time.Second},
	})
	if len(tls) != 1 || tls[0].Session != TraceIDString(root.Trace) {
		t.Fatalf("session label should fall back to hex trace id: %+v", tls)
	}
}

func TestRenderTimelinesDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := RenderTimelines(&a, BuildTimelines(syntheticAttachTrace())); err != nil {
		t.Fatal(err)
	}
	if err := RenderTimelines(&b, BuildTimelines(syntheticAttachTrace())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("timeline rendering not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"session s0", "session s1", "cell-select", "aka", "outcome=ok", "outcome=giveup", "n=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	var j1, j2 bytes.Buffer
	if err := WriteTimelinesJSON(&j1, BuildTimelines(syntheticAttachTrace())); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelinesJSON(&j2, BuildTimelines(syntheticAttachTrace())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatalf("timeline JSON not deterministic")
	}
	if err := WriteTimelinesJSON(&j1, nil); err != nil {
		t.Fatal(err)
	}
}
