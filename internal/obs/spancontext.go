package obs

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// SpanContext is the compact causal-trace identity carried end-to-end
// through NAS envelopes and wire frame headers. Trace groups every span of
// one logical operation (e.g. a UE attach), Span identifies this hop, and
// Parent names the span that caused it. The zero value is "no context".
type SpanContext struct {
	Trace  uint64
	Span   uint64
	Parent uint64
}

// SpanContextLen is the wire size of an encoded SpanContext.
const SpanContextLen = 24

// Valid reports whether the context carries a trace (Trace != 0).
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// AppendSpanContext appends the 24-byte big-endian encoding of sc to dst.
func AppendSpanContext(dst []byte, sc SpanContext) []byte {
	dst = binary.BigEndian.AppendUint64(dst, sc.Trace)
	dst = binary.BigEndian.AppendUint64(dst, sc.Span)
	return binary.BigEndian.AppendUint64(dst, sc.Parent)
}

// DecodeSpanContext parses a context encoded by AppendSpanContext from the
// front of b.
func DecodeSpanContext(b []byte) (SpanContext, error) {
	if len(b) < SpanContextLen {
		return SpanContext{}, fmt.Errorf("obs: span context truncated: %d bytes, want %d", len(b), SpanContextLen)
	}
	return SpanContext{
		Trace:  binary.BigEndian.Uint64(b[0:8]),
		Span:   binary.BigEndian.Uint64(b[8:16]),
		Parent: binary.BigEndian.Uint64(b[16:24]),
	}, nil
}

// Span IDs are minted by the Tracer that records the spans: each ID is a
// splitmix64 mix of the tracer's seed and a process-order sequence number,
// so a run with a fixed seed and a fixed span-creation order yields
// byte-identical traces — never the math/rand global, which other
// components may consume from. Minting is safe for concurrent use; in
// deterministic simulations callers must additionally mint in a
// deterministic order (e.g. only from shard-0 handlers).

// nextID mints the next span ID. IDs are never zero (zero means "no
// context").
func (t *Tracer) nextID() uint64 {
	id := splitmix64(t.idSeed.Load() + t.idSeq.Add(1)*0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// NewTrace mints a root context: a fresh trace whose root span shares the
// trace ID (Trace == Span, Parent == 0) so roots are recognizable. A nil
// tracer mints the zero context, which traces nothing.
func (t *Tracer) NewTrace() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	id := t.nextID()
	return SpanContext{Trace: id, Span: id}
}

// Child mints the context for a span parent caused: same trace, a fresh
// span ID, parented under parent's span. A nil tracer or an invalid parent
// yields the zero context, so an untraced caller's children stay untraced.
func (t *Tracer) Child(parent SpanContext) SpanContext {
	if t == nil || !parent.Valid() {
		return SpanContext{}
	}
	return SpanContext{Trace: parent.Trace, Span: t.nextID(), Parent: parent.Span}
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator — a cheap
// bijective mixer with good avalanche, ideal for seed+counter ID schemes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TraceIDString renders a trace ID the way exports and filters spell it.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID accepts a trace ID as hex (with or without 0x, zero-padded
// or not) or decimal, matching what TraceIDString and the JSONL export emit.
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if h, ok := strings.CutPrefix(s, "0x"); ok {
		return strconv.ParseUint(h, 16, 64)
	}
	if id, err := strconv.ParseUint(s, 10, 64); err == nil {
		return id, nil
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return id, nil
}

// FilterTrace returns the events belonging to one trace, preserving order.
func FilterTrace(events []TraceEvent, trace uint64) []TraceEvent {
	var out []TraceEvent
	for _, e := range events {
		if e.Trace == trace {
			out = append(out, e)
		}
	}
	return out
}
