package wire

import (
	"cellbricks/internal/obs"
)

// Package-wide telemetry handles. Unlike netem, wire components are
// genuinely concurrent (one goroutine per connection), so these are shared
// atomics incremented directly — the costs here are socket syscalls, not
// nanosecond event dispatch, so a few atomic adds per frame are invisible.
var mtr struct {
	framesSent *obs.Counter
	framesRecv *obs.Counter
	bytesSent  *obs.Counter
	bytesRecv  *obs.Counter

	calls        *obs.Counter
	redials      *obs.Counter
	broken       *obs.Counter
	deadlineHits *obs.Counter
	shedReplies  *obs.Counter
	panics       *obs.Counter
	poolDials    *obs.Counter
	poolReuses   *obs.Counter

	callLatency *obs.Histogram
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.framesSent = r.Counter("wire_frames_sent_total", "frames written by WriteFrame")
	mtr.framesRecv = r.Counter("wire_frames_received_total", "frames read by ReadFrame")
	mtr.bytesSent = r.Counter("wire_bytes_sent_total", "payload+header bytes written by WriteFrame")
	mtr.bytesRecv = r.Counter("wire_bytes_received_total", "payload+header bytes read by ReadFrame")
	mtr.calls = r.Counter("wire_client_calls_total", "completed Call invocations")
	mtr.redials = r.Counter("wire_client_redials_total", "client reconnects, including lazy redials")
	mtr.broken = r.Counter("wire_client_broken_total", "connections abandoned mid-frame")
	mtr.deadlineHits = r.Counter("wire_client_deadline_hits_total", "call attempts that failed on an i/o timeout")
	mtr.shedReplies = r.Counter("wire_client_shed_replies_total", "typed retry-after replies received")
	mtr.panics = r.Counter("wire_server_panics_total", "handler panics recovered by the server")
	mtr.poolDials = r.Counter("wire_pool_dials_total", "connections a Pool dialled because none was idle")
	mtr.poolReuses = r.Counter("wire_pool_reuses_total", "Pool calls served on an idle connection")
	mtr.callLatency = r.Histogram("wire_call_seconds", "end-to-end Call latency", nil)
}
