package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one recorded trace record: an instant event (Dur == 0 and
// Instant == true) or a complete span. Timestamps are durations on the
// tracer's clock — virtual time when the clock is a simulator's, wall time
// since tracer start otherwise — so a trace from a deterministic run is
// itself deterministic. Trace/Span/Parent carry the causal identity when
// the record was made with a SpanContext; they are zero (and omitted from
// JSON) for plain uncorrelated records, which keeps pre-existing trace
// serializations byte-identical.
type TraceEvent struct {
	Cat     string            `json:"cat"`
	Name    string            `json:"name"`
	Start   time.Duration     `json:"ts_ns"`
	Dur     time.Duration     `json:"dur_ns,omitempty"`
	Instant bool              `json:"instant,omitempty"`
	Trace   uint64            `json:"trace_id,omitempty"`
	Span    uint64            `json:"span_id,omitempty"`
	Parent  uint64            `json:"parent_id,omitempty"`
	Args    map[string]string `json:"args,omitempty"`

	// seq is the tracer-global record order, used to restore a canonical
	// ordering across buffer stripes. Not serialized.
	seq uint64
}

// tracerStripes shards the event buffer so concurrent recorders contend on
// a 1/16th-width mutex instead of one global lock. A power of two so the
// stripe index is a mask of the global sequence counter.
const tracerStripes = 16

type tracerStripe struct {
	mu     sync.Mutex
	events []TraceEvent
	_      [24]byte // keep stripes off each other's cache lines
}

type clockFunc func() time.Duration

// Tracer records structured spans and events against an injected clock.
// All methods are nil-safe no-ops, so call sites pass a tracer through
// unconditionally and pay one branch when tracing is off. Recording takes
// a striped mutex (one of 16, picked round-robin by an atomic counter) —
// concurrent recorders from different goroutines rarely collide, and
// Events() restores the canonical global order by sequence number.
type Tracer struct {
	clock   atomic.Pointer[clockFunc]
	seq     atomic.Uint64
	retain  atomic.Bool
	flight  atomic.Pointer[FlightRecorder]
	stripes [tracerStripes]tracerStripe
}

// NewTracer builds a tracer on the given clock — a simulator's Now for
// deterministic virtual-time traces, or nil for wall time measured from
// tracer creation.
func NewTracer(clock func() time.Duration) *Tracer {
	if clock == nil {
		t0 := time.Now()
		clock = func() time.Duration { return time.Since(t0) }
	}
	t := &Tracer{}
	cf := clockFunc(clock)
	t.clock.Store(&cf)
	t.retain.Store(true)
	return t
}

// SetClock rebinds the tracer to a new clock — used when the component
// that owns the clock (e.g. a simulator) is constructed after the tracer.
// A nil clock is ignored.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil || clock == nil {
		return
	}
	cf := clockFunc(clock)
	t.clock.Store(&cf)
}

// SetRetain controls whether records are kept in the tracer's buffer.
// With retain off the tracer still feeds its flight recorder (and still
// reads its clock), so a long soak can run with a bounded memory footprint
// while keeping a crash dump available. Defaults to on.
func (t *Tracer) SetRetain(on bool) {
	if t == nil {
		return
	}
	t.retain.Store(on)
}

// SetFlight attaches a flight recorder that mirrors every record into
// bounded per-category rings (see FlightRecorder). Pass nil to detach.
func (t *Tracer) SetFlight(fr *FlightRecorder) {
	if t == nil {
		return
	}
	t.flight.Store(fr)
}

// Flight returns the attached flight recorder, if any.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight.Load()
}

// Now returns the tracer's current clock reading (0 for nil).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return (*t.clock.Load())()
}

func (t *Tracer) record(e TraceEvent) {
	e.seq = t.seq.Add(1)
	if fr := t.flight.Load(); fr != nil {
		fr.Record(e)
	}
	if !t.retain.Load() {
		return
	}
	s := &t.stripes[e.seq&(tracerStripes-1)]
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Event records an instant event at the current clock reading.
func (t *Tracer) Event(cat, name string, args map[string]string) {
	if t == nil {
		return
	}
	t.EventAt(t.Now(), cat, name, args)
}

// EventAt records an instant event at an explicit timestamp (used when the
// caller knows the event's virtual time more precisely than "now").
func (t *Tracer) EventAt(at time.Duration, cat, name string, args map[string]string) {
	if t == nil {
		return
	}
	t.record(TraceEvent{Cat: cat, Name: name, Start: at, Instant: true, Args: args})
}

// Span records a complete span [start, start+dur).
func (t *Tracer) Span(cat, name string, start, dur time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	t.record(TraceEvent{Cat: cat, Name: name, Start: start, Dur: dur, Args: args})
}

// SpanCtx records a complete span carrying a span context: sc.Span is this
// span's identity, sc.Parent the caller that caused it.
func (t *Tracer) SpanCtx(sc SpanContext, cat, name string, start, dur time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	t.record(TraceEvent{
		Cat: cat, Name: name, Start: start, Dur: dur,
		Trace: sc.Trace, Span: sc.Span, Parent: sc.Parent, Args: args,
	})
}

// Begin opens a span at the current clock reading and returns a closure
// that records it on completion.
func (t *Tracer) Begin(cat, name string, args map[string]string) func() {
	if t == nil {
		return func() {}
	}
	start := t.Now()
	return func() { t.Span(cat, name, start, t.Now()-start, args) }
}

// Events returns a copy of everything recorded so far, in recording order
// (the tracer-global sequence, merged across buffer stripes).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	var out []TraceEvent
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Len reports how many records the tracer holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// chromeEvent is the Chrome trace-event (about://tracing, Perfetto) JSON
// shape. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders the trace in Chrome trace-event JSON array
// format, loadable in Perfetto or chrome://tracing. Categories map to
// thread IDs so each subsystem gets its own row.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteChromeTraceEvents(w, t.Events())
}

// WriteChromeTraceEvents renders an event slice (e.g. a filtered trace or a
// flight-recorder dump) in Chrome trace-event JSON array format. Events
// that carry a span context surface it as hex args so the viewer shows the
// causal identity; id-less events serialize exactly as before contexts
// existed.
func WriteChromeTraceEvents(w io.Writer, events []TraceEvent) error {
	tids := make(map[string]int)
	tidOf := func(cat string) int {
		if id, ok := tids[cat]; ok {
			return id
		}
		id := len(tids) + 1
		tids[cat] = id
		return id
	}
	out := make([]chromeEvent, 0, len(events)+len(tids))
	for _, e := range events {
		args := e.Args
		if e.Trace != 0 {
			args = make(map[string]string, len(e.Args)+3)
			for k, v := range e.Args {
				args[k] = v
			}
			args["trace_id"] = TraceIDString(e.Trace)
			args["span_id"] = TraceIDString(e.Span)
			if e.Parent != 0 {
				args["parent_id"] = TraceIDString(e.Parent)
			}
		}
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			TS:   float64(e.Start) / float64(time.Microsecond),
			PID:  1,
			TID:  tidOf(e.Cat),
			Args: args,
		}
		if e.Instant {
			ce.Ph, ce.S = "i", "t"
		} else {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / float64(time.Microsecond)
		}
		out = append(out, ce)
	}
	// Name the per-category rows so the viewer labels them. TIDs are
	// assigned in first-appearance order, so emitting by ascending TID
	// keeps the serialization deterministic (map iteration is not).
	cats := make([]string, len(tids))
	for cat, tid := range tids {
		cats[tid-1] = cat
	}
	for i, cat := range cats {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]string{"name": cat},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteJSONL renders the trace one TraceEvent JSON object per line — the
// grep/jq-friendly form, and the one the trace-derivation tests consume.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteJSONLEvents(w, t.Events())
}

// WriteJSONLEvents renders an event slice one JSON object per line.
func WriteJSONLEvents(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	dec := json.NewDecoder(r)
	for {
		var e TraceEvent
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("obs: bad trace line %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}
