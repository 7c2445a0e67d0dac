package ran

import (
	"errors"
	"sync"
	"time"
)

// This file models the eNodeB's RRC front-end — the piece of srsENB the
// prototype reuses unmodified. CellBricks changes nothing below NAS, so
// the eNB's job is: set up the UE's RRC connection, then relay NAS
// transparently between the UE and the core.

// NASRelay forwards one NAS envelope to the core and returns the reply —
// the S1-AP leg; epc.AGW.HandleNAS fits after binding the RAN id.
type NASRelay func(ranID string, envelope []byte) ([]byte, error)

// ENB is one eNodeB: it admits UEs through RRC connection setup and
// relays NAS for connected UEs.
type ENB struct {
	Cell  Cell
	Relay NASRelay

	mu    sync.Mutex
	conns map[string]struct{} // RAN ids with an RRC connection
}

// NewENB builds an eNodeB front-end for a cell.
func NewENB(cell Cell, relay NASRelay) *ENB {
	return &ENB{Cell: cell, Relay: relay, conns: make(map[string]struct{})}
}

// Errors from the RRC layer.
var (
	ErrNotConnected  = errors.New("ran: UE has no RRC connection")
	ErrAlreadyActive = errors.New("ran: RRC connection already active")
	ErrRelayUnset    = errors.New("ran: eNB has no core relay")
)

// Connect runs RRC connection establishment for a UE. It returns the
// setup delay the radio layer imposes (the RRCSetupDelay the Fig. 7
// benchmark excludes but the mobility emulation pays).
func (e *ENB) Connect(ranID string) (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.conns[ranID]; ok {
		return 0, ErrAlreadyActive
	}
	e.conns[ranID] = struct{}{}
	return e.Cell.RRCSetupDelay, nil
}

// ForwardNAS relays a NAS envelope for a connected UE. The eNB never
// inspects NAS content — CellBricks' new messages pass through a stock
// eNodeB untouched, which is why the paper can reuse commercial base
// stations.
func (e *ENB) ForwardNAS(ranID string, envelope []byte) ([]byte, error) {
	e.mu.Lock()
	_, ok := e.conns[ranID]
	relay := e.Relay
	e.mu.Unlock()
	if !ok {
		return nil, ErrNotConnected
	}
	if relay == nil {
		return nil, ErrRelayUnset
	}
	return relay(ranID, envelope)
}
