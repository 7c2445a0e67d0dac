// Package orc8r is the orchestrator substrate the prototype builds its
// broker into (§5: "the Orc8r implements a cloud service that configures
// and monitors the AGWs ... we implement the broker service (called
// brokerd) as part of Magma's Orc8r component"). It provides what the
// paper's deployment relies on around brokerd: AGW registration, liveness
// via heartbeats, configuration push (QoS defaults, lawful-intercept
// requirements, reporting cadence), and fleet-wide metrics aggregation.
package orc8r

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cellbricks/internal/codec"
	"cellbricks/internal/qos"
)

// AGWConfigPush is the configuration the orchestrator distributes to an
// access gateway.
type AGWConfigPush struct {
	// DefaultQoS seeds the AGW's fallback bearer parameters.
	DefaultQoS qos.Params
	// ReportInterval is the billing reporting cadence the AGW should use.
	ReportInterval time.Duration
	// RequireLI tells the AGW to enable its intercept tap for flagged
	// sessions.
	RequireLI bool
}

// Marshal encodes a config push.
func (c AGWConfigPush) Marshal() []byte {
	w := codec.NewWriter(64)
	w.Byte(byte(c.DefaultQoS.QCI))
	w.Uint64(c.DefaultQoS.DLAmbrBps)
	w.Uint64(c.DefaultQoS.ULAmbrBps)
	w.Uint64(uint64(c.ReportInterval))
	w.Bool(c.RequireLI)
	return w.Out()
}

// UnmarshalAGWConfigPush decodes a config push.
func UnmarshalAGWConfigPush(b []byte) (AGWConfigPush, error) {
	r := codec.NewReader(b)
	var c AGWConfigPush
	c.DefaultQoS.QCI = qos.QCI(r.Byte())
	c.DefaultQoS.DLAmbrBps = r.Uint64()
	c.DefaultQoS.ULAmbrBps = r.Uint64()
	c.ReportInterval = time.Duration(r.Uint64())
	c.RequireLI = r.Bool()
	return c, r.Done()
}

// Heartbeat is the AGW's periodic health/metrics report.
type Heartbeat struct {
	AGWID          string
	At             time.Duration // AGW-local uptime clock
	ActiveSessions uint32
	ULBytes        uint64
	DLBytes        uint64
	Attaches       uint64
	AttachFailures uint64
}

// Marshal encodes a heartbeat.
func (h Heartbeat) Marshal() []byte {
	w := codec.NewWriter(96)
	w.String(h.AGWID)
	w.Uint64(uint64(h.At))
	w.Uint32(h.ActiveSessions)
	w.Uint64(h.ULBytes)
	w.Uint64(h.DLBytes)
	w.Uint64(h.Attaches)
	w.Uint64(h.AttachFailures)
	return w.Out()
}

// UnmarshalHeartbeat decodes a heartbeat.
func UnmarshalHeartbeat(b []byte) (Heartbeat, error) {
	r := codec.NewReader(b)
	var h Heartbeat
	h.AGWID = r.String()
	h.At = time.Duration(r.Uint64())
	h.ActiveSessions = r.Uint32()
	h.ULBytes = r.Uint64()
	h.DLBytes = r.Uint64()
	h.Attaches = r.Uint64()
	h.AttachFailures = r.Uint64()
	return h, r.Done()
}

// AGWRecord is the orchestrator's view of one registered gateway.
type AGWRecord struct {
	ID       string
	TelcoID  string
	Addr     string
	Config   AGWConfigPush
	LastSeen time.Time
	Last     Heartbeat
}

// Errors.
var (
	ErrUnknownAGW = errors.New("orc8r: unknown AGW")
	ErrDuplicate  = errors.New("orc8r: AGW already registered")
)

// Orchestrator tracks a fleet of AGWs.
type Orchestrator struct {
	// Now is injectable for virtual-time tests.
	Now func() time.Time
	// Liveness is how stale a heartbeat may be before the AGW counts as
	// down (default 90 s).
	Liveness time.Duration

	mu     sync.Mutex
	agws   map[string]*AGWRecord
	defCfg AGWConfigPush
}

// New creates an orchestrator with the given default config template.
func New(def AGWConfigPush) *Orchestrator {
	if def.ReportInterval == 0 {
		def.ReportInterval = 30 * time.Second
	}
	if def.DefaultQoS.QCI == 0 {
		def.DefaultQoS = qos.DefaultParams()
	}
	return &Orchestrator{
		Now:      time.Now,
		Liveness: 90 * time.Second,
		agws:     make(map[string]*AGWRecord),
		defCfg:   def,
	}
}

// Register adds an AGW and returns its initial configuration.
func (o *Orchestrator) Register(id, telcoID, addr string) (AGWConfigPush, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.agws[id]; dup {
		return AGWConfigPush{}, fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	rec := &AGWRecord{ID: id, TelcoID: telcoID, Addr: addr, Config: o.defCfg, LastSeen: o.Now()}
	o.agws[id] = rec
	return rec.Config, nil
}

// Deregister removes an AGW.
func (o *Orchestrator) Deregister(id string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.agws, id)
}

// ReportHeartbeat ingests a heartbeat and returns the AGW's current
// configuration (config changes piggyback on the heartbeat reply, the
// way Magma's checkin works).
func (o *Orchestrator) ReportHeartbeat(h Heartbeat) (AGWConfigPush, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	rec, ok := o.agws[h.AGWID]
	if !ok {
		return AGWConfigPush{}, fmt.Errorf("%w: %s", ErrUnknownAGW, h.AGWID)
	}
	rec.Last = h
	rec.LastSeen = o.Now()
	return rec.Config, nil
}

// PushConfig updates one AGW's configuration (delivered on its next
// heartbeat).
func (o *Orchestrator) PushConfig(id string, cfg AGWConfigPush) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	rec, ok := o.agws[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAGW, id)
	}
	rec.Config = cfg
	return nil
}

// Get returns a snapshot of one AGW record.
func (o *Orchestrator) Get(id string) (AGWRecord, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	rec, ok := o.agws[id]
	if !ok {
		return AGWRecord{}, false
	}
	return *rec, true
}

// Alive lists AGWs with a fresh heartbeat, sorted by ID.
func (o *Orchestrator) Alive() []AGWRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	cutoff := o.Now().Add(-o.Liveness)
	var out []AGWRecord
	for _, rec := range o.agws {
		if rec.LastSeen.After(cutoff) {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FleetMetrics aggregates the latest heartbeats per bTelco.
type FleetMetrics struct {
	AGWs           int
	ActiveSessions uint64
	ULBytes        uint64
	DLBytes        uint64
	Attaches       uint64
	AttachFailures uint64
}

// Metrics aggregates fleet-wide, or per bTelco when telcoID is non-empty.
func (o *Orchestrator) Metrics(telcoID string) FleetMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	var m FleetMetrics
	for _, rec := range o.agws {
		if telcoID != "" && rec.TelcoID != telcoID {
			continue
		}
		m.AGWs++
		m.ActiveSessions += uint64(rec.Last.ActiveSessions)
		m.ULBytes += rec.Last.ULBytes
		m.DLBytes += rec.Last.DLBytes
		m.Attaches += rec.Last.Attaches
		m.AttachFailures += rec.Last.AttachFailures
	}
	return m
}
