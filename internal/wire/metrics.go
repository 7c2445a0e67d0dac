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

	redials    *obs.Counter
	poolDials  *obs.Counter
	poolReuses *obs.Counter
}

// init registers the package's handles in the default registry.
func init() {
	r := obs.Default()
	mtr.framesSent = r.Counter("wire_frames_sent_total", "frames written by WriteFrame")
	mtr.framesRecv = r.Counter("wire_frames_received_total", "frames read off connections")
	mtr.bytesSent = r.Counter("wire_bytes_sent_total", "payload+header bytes written by WriteFrame")
	mtr.bytesRecv = r.Counter("wire_bytes_received_total", "payload+header bytes read off connections")
	mtr.redials = r.Counter("wire_client_redials_total", "client reconnects, including lazy redials")
	mtr.poolDials = r.Counter("wire_pool_dials_total", "connections a Pool dialled because none was idle")
	mtr.poolReuses = r.Counter("wire_pool_reuses_total", "Pool calls served on an idle connection")
}
