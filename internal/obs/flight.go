package obs

import (
	"io"
	"sort"
	"sync"
)

// FlightRecorder keeps a bounded ring of the most recent trace events per
// component (trace category), like an aircraft flight recorder: cheap to
// feed continuously, read only after something goes wrong. Attach one to a
// Tracer with SetFlight and every record — retained or not — is mirrored
// into the ring for its category. Dump contents are deterministic: rings
// are keyed by category in first-appearance order and hold events in
// record order, so a deterministic run produces a byte-identical dump.
type FlightRecorder struct {
	mu      sync.Mutex
	perCat  int
	order   []string
	rings   map[string]*flightRing
	dropped uint64
}

type flightRing struct {
	buf   []TraceEvent
	next  int
	total int
}

// NewFlightRecorder builds a recorder holding up to perCat recent events
// for each category (minimum 1).
func NewFlightRecorder(perCat int) *FlightRecorder {
	if perCat < 1 {
		perCat = 1
	}
	return &FlightRecorder{perCat: perCat, rings: make(map[string]*flightRing)}
}

// Record mirrors one event into its category's ring, evicting the oldest
// when full. Nil-safe.
func (fr *FlightRecorder) Record(e TraceEvent) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	r := fr.rings[e.Cat]
	if r == nil {
		r = &flightRing{buf: make([]TraceEvent, 0, fr.perCat)}
		fr.rings[e.Cat] = r
		fr.order = append(fr.order, e.Cat)
	}
	if len(r.buf) < fr.perCat {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % fr.perCat
		fr.dropped++
	}
	r.total++
	fr.mu.Unlock()
}

// Events returns the recorded events, oldest first within each category,
// categories in first-appearance order, globally re-sorted by tracer
// sequence when available so the dump reads as one coherent timeline.
func (fr *FlightRecorder) Events() []TraceEvent {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	var out []TraceEvent
	for _, cat := range fr.order {
		r := fr.rings[cat]
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	fr.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Len reports how many events the recorder currently holds.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := 0
	for _, r := range fr.rings {
		n += len(r.buf)
	}
	return n
}

// WriteDump writes the recorder contents as JSONL (same shape as a trace
// file, so the same tooling reads both). Nil-safe.
func (fr *FlightRecorder) WriteDump(w io.Writer) error {
	if fr == nil {
		return nil
	}
	return WriteJSONLEvents(w, fr.Events())
}
