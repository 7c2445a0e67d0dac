package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary the benchmark can
// reach from outside the program: the call into a layer's public function,
// the span that caused it, and the op both belong to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top level
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The load goroutine
// opens and closes spans in stack order; a server goroutine handling that
// goroutine's blocking call may nest spans under the innermost open one
// (one op is in flight at a time, so "innermost open" is unambiguous).
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setOp labels the spans that follow with op id n. Like begin, it is a
// no-op on a nil recorder, so call sites need no "if tracing" branch.
func (r *recorder) setOp(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op = n
	r.mu.Unlock()
}

// begin opens a span under the innermost open span and returns the
// function that closes it.
func (r *recorder) begin(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Op: r.op, Name: name})
	r.open = append(r.open, idx)
	r.spans[idx].Start = int64(time.Since(r.t0))
	r.mu.Unlock()
	return func() {
		now := int64(time.Since(r.t0))
		r.mu.Lock()
		r.spans[idx].End = now
		for i := len(r.open) - 1; i >= 0; i-- {
			if r.open[i] == idx {
				r.open = append(r.open[:i], r.open[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice), indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - cover(kids[s.ID], s.Start, s.End)
	}
	return out
}

// cover is the length of the union of the spans' intervals clipped to
// [lo, hi].
func cover(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	at := lo
	for _, s := range spans {
		a, b := max(s.Start, at), min(s.End, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// selfByName groups self times (in µs) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e3)
	}
	return out
}

// writeJSONL writes one span per line to path, creating its directory.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
