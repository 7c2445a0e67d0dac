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

// bearerSet is one UE's default bearer plus any dedicated bearers, keyed
// by QCI (traffic classification in this model is by QoS class).
type bearerSet struct {
	def       *Bearer
	dedicated map[qos.QCI]*Bearer
}

// UserPlane is the packet-gateway function: bearer sets indexed by UE IP.
type UserPlane struct {
	mu      sync.Mutex
	byIP    map[string]*bearerSet
	nextBID uint32
}

// NewUserPlane creates an empty user plane.
func NewUserPlane() *UserPlane {
	return &UserPlane{byIP: make(map[string]*bearerSet)}
}

// CreateBearer provisions the default bearer for a session.
func (up *UserPlane) CreateBearer(sessionID uint64, ip string, params qos.Params) *Bearer {
	up.mu.Lock()
	defer up.mu.Unlock()
	up.nextBID++
	b := newBearer(sessionID, up.nextBID, ip, params)
	up.byIP[ip] = &bearerSet{def: b, dedicated: make(map[qos.QCI]*Bearer)}
	return b
}

// newBearer builds a bearer with its policers precomputed from params.
func newBearer(sessionID uint64, bid uint32, ip string, params qos.Params) *Bearer {
	return &Bearer{
		SessionID: sessionID, BearerID: bid, IP: ip, Params: params,
		ulState: newPolicer(float64(params.ULAmbrBps)),
		dlState: newPolicer(float64(params.DLAmbrBps)),
	}
}

// CreateDedicatedBearer provisions an additional bearer for one traffic
// class on an existing session (the EPS dedicated-bearer concept: e.g. a
// GBR voice bearer beside the default best-effort bearer).
func (up *UserPlane) CreateDedicatedBearer(ip string, params qos.Params) (*Bearer, bool) {
	up.mu.Lock()
	defer up.mu.Unlock()
	set, ok := up.byIP[ip]
	if !ok {
		return nil, false
	}
	up.nextBID++
	b := newBearer(set.def.SessionID, up.nextBID, ip, params)
	set.dedicated[params.QCI] = b
	return b, true
}

// Lookup finds the default bearer for a UE IP.
func (up *UserPlane) Lookup(ip string) *Bearer {
	up.mu.Lock()
	defer up.mu.Unlock()
	if set, ok := up.byIP[ip]; ok {
		return set.def
	}
	return nil
}

// classify routes a packet of the given QoS class to its bearer: the
// dedicated bearer for that QCI when one exists, else the default.
func (up *UserPlane) classify(ip string, q qos.QCI) *Bearer {
	up.mu.Lock()
	defer up.mu.Unlock()
	set, ok := up.byIP[ip]
	if !ok {
		return nil
	}
	if b, ok := set.dedicated[q]; ok {
		return b
	}
	return set.def
}

// DeleteBearer removes a session's bearer set at detach, returning the
// default bearer's final usage for the closing traffic report.
func (up *UserPlane) DeleteBearer(ip string) (Usage, bool) {
	up.mu.Lock()
	defer up.mu.Unlock()
	set, ok := up.byIP[ip]
	if !ok {
		return Usage{}, false
	}
	delete(up.byIP, ip)
	return set.def.Usage(), true
}

// TotalUsage sums usage across a session's default and dedicated bearers
// (what the bTelco reports for billing).
func (up *UserPlane) TotalUsage(ip string) (Usage, bool) {
	up.mu.Lock()
	defer up.mu.Unlock()
	set, ok := up.byIP[ip]
	if !ok {
		return Usage{}, false
	}
	u := set.def.Usage()
	for _, b := range set.dedicated {
		du := b.Usage()
		u.ULBytes += du.ULBytes
		u.DLBytes += du.DLBytes
		u.ULPackets += du.ULPackets
		u.DLPackets += du.DLPackets
		u.ULDropped += du.ULDropped
		u.DLDropped += du.DLDropped
	}
	return u, true
}

// Count reports the number of live sessions.
func (up *UserPlane) Count() int {
	up.mu.Lock()
	defer up.mu.Unlock()
	return len(up.byIP)
}
