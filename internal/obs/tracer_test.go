package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTracerRecordsAgainstInjectedClock(t *testing.T) {
	var now time.Duration
	tr := NewTracer(0, func() time.Duration { return now })

	now = 10 * time.Millisecond
	tr.Event("chaos", "fault", map[string]string{"kind": "flap"})
	now = 15 * time.Millisecond
	start := tr.Now()
	now = 40 * time.Millisecond
	tr.SpanCtx(SpanContext{}, "attach", "sap", start, tr.Now()-start, nil)
	tr.SpanCtx(SpanContext{}, "wire", "call", 5*time.Millisecond, 2*time.Millisecond, nil)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	if !ev[0].Instant || ev[0].Start != 10*time.Millisecond || ev[0].Args["kind"] != "flap" {
		t.Fatalf("bad instant event: %+v", ev[0])
	}
	if ev[1].Instant || ev[1].Start != 15*time.Millisecond || ev[1].Dur != 25*time.Millisecond {
		t.Fatalf("bad span timed on the injected clock: %+v", ev[1])
	}
	if ev[2].Start != 5*time.Millisecond || ev[2].Dur != 2*time.Millisecond {
		t.Fatalf("bad explicit span: %+v", ev[2])
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var now time.Duration
	tr := NewTracer(0, func() time.Duration { return now })
	tr.Event("a", "x", map[string]string{"k": "v"})
	now = time.Second
	tr.SpanCtx(SpanContext{}, "b", "y", 100*time.Millisecond, 50*time.Millisecond, nil)

	var buf bytes.Buffer
	if err := WriteJSONLEvents(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip length %d != %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("event %d round trip mismatch: %s vs %s", i, a, b)
		}
	}
}

func TestChromeTraceShape(t *testing.T) {
	var now time.Duration
	tr := NewTracer(0, func() time.Duration { return now })
	tr.Event("chaos", "fault", nil)
	tr.SpanCtx(SpanContext{}, "attach", "sap", time.Millisecond, 2*time.Millisecond, map[string]string{"telco": "t0"})

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	// 2 records + 2 thread_name metadata rows.
	if len(evs) != 4 {
		t.Fatalf("chrome events = %d, want 4", len(evs))
	}
	var sawInstant, sawSpan bool
	for _, e := range evs {
		switch e["ph"] {
		case "i":
			sawInstant = true
		case "X":
			sawSpan = true
			if e["ts"].(float64) != 1000 || e["dur"].(float64) != 2000 {
				t.Fatalf("span ts/dur not in microseconds: %+v", e)
			}
		}
	}
	if !sawInstant || !sawSpan {
		t.Fatalf("missing phases: instant=%v span=%v", sawInstant, sawSpan)
	}
}

// WriteTraceFile writes JSON lines for a .jsonl path and the Chrome trace
// for any other.
func TestWriteTraceFileFormatBySuffix(t *testing.T) {
	tr := NewTracer(0, func() time.Duration { return time.Millisecond })
	tr.Event("chaos", "fault", map[string]string{"kind": "flap"})
	for name, write := range map[string]func(io.Writer, []TraceEvent) error{
		"trace.jsonl": WriteJSONLEvents,
		"trace.json":  writeChromeTrace,
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := WriteTraceFile(path, tr.Events()); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := write(&want, tr.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s holds\n%s\nwant\n%s", name, got, want.Bytes())
		}
	}
}

// TestTraceDeterminism: same recorded sequence, byte-identical serialization.
func TestTraceDeterminism(t *testing.T) {
	mk := func() *Tracer {
		var now time.Duration
		tr := NewTracer(0, func() time.Duration { return now })
		for i := 0; i < 50; i++ {
			now += time.Millisecond
			tr.Event("cat", "e", map[string]string{"b": "2", "a": "1", "c": "3"})
			tr.SpanCtx(SpanContext{}, "cat", "s", now, time.Millisecond, nil)
		}
		return tr
	}
	var b1, b2, c1, c2 bytes.Buffer
	if err := WriteJSONLEvents(&b1, mk().Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONLEvents(&b2, mk().Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("JSONL serialization not deterministic")
	}
	if err := writeChromeTrace(&c1, mk().Events()); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTrace(&c2, mk().Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatalf("Chrome trace serialization not deterministic")
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("smoke_total", "smoke").Add(9)
	s, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "smoke_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Fatalf("/debug/vars does not look like expvar output:\n%.200s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%.200s", out)
	}
}

func TestLogLevels(t *testing.T) {
	var buf bytes.Buffer
	setLogOutput(&buf)
	defer setLogOutput(nil)
	defer SetLogLevel(LevelInfo)

	SetLogLevel(LevelInfo)
	Debugf("wire", "retry %d", 1)
	Infof("wire", "listening")
	Errorf("wire", "boom")
	out := buf.String()
	if strings.Contains(out, "retry") {
		t.Fatalf("debug message leaked at info level:\n%s", out)
	}
	if !strings.Contains(out, "listening") || !strings.Contains(out, "boom") {
		t.Fatalf("info/error messages missing:\n%s", out)
	}

	buf.Reset()
	Verbose(true)
	Debugf("wire", "retry %d", 2)
	if !strings.Contains(buf.String(), "retry 2") {
		t.Fatalf("debug message missing at debug level:\n%s", buf.String())
	}
}

// setLogOutput redirects log output for a test to capture it. Passing nil
// restores stderr.
func setLogOutput(w io.Writer) {
	logMu.Lock()
	defer logMu.Unlock()
	if w == nil {
		w = os.Stderr
	}
	logOut = w
}
