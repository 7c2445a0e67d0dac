package epc

import (
	"sync"
	"time"

	"cellbricks/internal/qos"
)

// Direction of user-plane traffic relative to the UE.
type Direction int

// Direction values.
const (
	Downlink Direction = iota
	Uplink
)

// Usage is a snapshot of a bearer's counters — the measurements the bTelco
// side of the verifiable-billing protocol reports (PGW counters in 4G /
// UPF in 5G terms).
type Usage struct {
	ULBytes   uint64
	DLBytes   uint64
	ULPackets uint64
	DLPackets uint64
	ULDropped uint64
	DLDropped uint64
}

// Bearer is one provisioned tunnel: the UE's IP, its QoS parameters, the
// policing state, and usage counters.
type Bearer struct {
	SessionID uint64
	BearerID  uint32
	IP        string
	Params    qos.Params
	// Tap mirrors admitted packets to a lawful-intercept sink when set.
	Tap func(now time.Duration, dir Direction, size int)

	mu      sync.Mutex
	usage   Usage
	ulState policerState
	dlState policerState
}

// policerState is a token bucket for AMBR enforcement. The rate terms are
// precomputed once at bearer creation — Process sits on the per-packet
// user-plane path, so it must not redo the bits-to-bytes and burst-cap
// arithmetic for every packet.
type policerState struct {
	bytesPerSec float64 // policed rate in bytes/s; 0 = unlimited
	maxTokens   float64 // burst allowance in bytes
	started     bool
	tokens      float64
	last        time.Duration
}

// burstSeconds is the policer burst allowance, expressed in seconds at the
// configured rate.
const burstSeconds = 0.2

// newPolicer precomputes the token-bucket terms for rateBps.
func newPolicer(rateBps float64) policerState {
	if rateBps <= 0 {
		return policerState{} // unlimited
	}
	bps := rateBps / 8
	return policerState{bytesPerSec: bps, maxTokens: bps * burstSeconds}
}

// police runs the token bucket; returns false to drop.
func (p *policerState) police(now time.Duration, size int) bool {
	if p.bytesPerSec <= 0 {
		return true // unlimited
	}
	if !p.started {
		// A fresh bearer starts with a full burst allowance.
		p.started = true
		p.tokens = p.maxTokens
		p.last = now
	}
	if now > p.last {
		p.tokens += (now - p.last).Seconds() * p.bytesPerSec
		p.last = now
		if p.tokens > p.maxTokens {
			p.tokens = p.maxTokens
		}
	}
	if p.tokens >= float64(size) {
		p.tokens -= float64(size)
		return true
	}
	return false
}

// Process accounts one packet and applies AMBR policing; it reports
// whether the packet may pass. now is virtual or wall time from session
// start — only differences matter.
func (b *Bearer) Process(now time.Duration, dir Direction, size int) bool {
	b.mu.Lock()
	switch dir {
	case Uplink:
		if !b.ulState.police(now, size) {
			b.usage.ULDropped++
			b.mu.Unlock()
			return false
		}
		b.usage.ULBytes += uint64(size)
		b.usage.ULPackets++
	default:
		if !b.dlState.police(now, size) {
			b.usage.DLDropped++
			b.mu.Unlock()
			return false
		}
		b.usage.DLBytes += uint64(size)
		b.usage.DLPackets++
	}
	tap := b.Tap
	b.mu.Unlock()
	if tap != nil {
		tap(now, dir, size)
	}
	return true
}

// Usage returns a snapshot of the counters.
func (b *Bearer) Usage() Usage {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.usage
}

// UserPlane is the packet-gateway function: one bearer per UE IP.
type UserPlane struct {
	mu      sync.Mutex
	byIP    map[string]*Bearer
	nextBID uint32
}

// NewUserPlane creates an empty user plane.
func NewUserPlane() *UserPlane {
	return &UserPlane{byIP: make(map[string]*Bearer)}
}

// CreateBearer provisions the default bearer for a session.
func (up *UserPlane) CreateBearer(sessionID uint64, ip string, params qos.Params) *Bearer {
	up.mu.Lock()
	defer up.mu.Unlock()
	up.nextBID++
	b := &Bearer{
		SessionID: sessionID, BearerID: up.nextBID, IP: ip, Params: params,
		ulState: newPolicer(float64(params.ULAmbrBps)),
		dlState: newPolicer(float64(params.DLAmbrBps)),
	}
	up.byIP[ip] = b
	return b
}

// Lookup finds the bearer for a UE IP.
func (up *UserPlane) Lookup(ip string) *Bearer {
	up.mu.Lock()
	defer up.mu.Unlock()
	return up.byIP[ip]
}

// DeleteBearer removes a session's bearer at detach, returning its final
// usage for the closing traffic report.
func (up *UserPlane) DeleteBearer(ip string) (Usage, bool) {
	up.mu.Lock()
	defer up.mu.Unlock()
	b, ok := up.byIP[ip]
	if !ok {
		return Usage{}, false
	}
	delete(up.byIP, ip)
	return b.Usage(), true
}
