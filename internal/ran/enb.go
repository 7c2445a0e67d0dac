package ran

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file models the eNodeB's RRC front-end — the piece of srsENB the
// prototype reuses unmodified. CellBricks changes nothing below NAS, so
// the eNB's job is: run the RRC connection state machine per UE, then
// relay NAS transparently between the UE and the core.

// RRCState is the per-UE radio connection state.
type RRCState int

// RRC states.
const (
	RRCIdle RRCState = iota
	RRCConnecting
	RRCConnected
)

func (s RRCState) String() string {
	switch s {
	case RRCIdle:
		return "idle"
	case RRCConnecting:
		return "connecting"
	case RRCConnected:
		return "connected"
	default:
		return fmt.Sprintf("rrc(%d)", int(s))
	}
}

// NASRelay forwards one NAS envelope to the core and returns the reply —
// the S1-AP leg; epc.AGW.HandleNAS fits after binding the RAN id.
type NASRelay func(ranID string, envelope []byte) ([]byte, error)

// ENB is one eNodeB: it admits UEs through RRC connection setup and
// relays NAS for connected UEs.
type ENB struct {
	Cell  Cell
	Relay NASRelay
	// MaxConnected bounds admitted UEs (RRC admission control);
	// 0 = unlimited.
	MaxConnected int
	// Clock returns virtual or wall time for connection bookkeeping.
	Clock func() time.Duration

	mu    sync.Mutex
	conns map[string]*rrcConn
}

type rrcConn struct {
	state       RRCState
	connectedAt time.Duration
	lastUsed    time.Duration
}

// NewENB builds an eNodeB front-end for a cell.
func NewENB(cell Cell, relay NASRelay) *ENB {
	return &ENB{
		Cell:  cell,
		Relay: relay,
		Clock: func() time.Duration { return 0 },
		conns: make(map[string]*rrcConn),
	}
}

// Errors from the RRC layer.
var (
	ErrNotConnected  = errors.New("ran: UE has no RRC connection")
	ErrAdmissionFull = errors.New("ran: cell admission control rejected the UE")
	ErrAlreadyActive = errors.New("ran: RRC connection already active")
	ErrRelayUnset    = errors.New("ran: eNB has no core relay")
)

// Connect runs RRC connection establishment for a UE. It returns the
// setup delay the radio layer imposes (the RRCSetupDelay the Fig. 7
// benchmark excludes but the mobility emulation pays).
func (e *ENB) Connect(ranID string) (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[ranID]; ok && c.state == RRCConnected {
		return 0, ErrAlreadyActive
	}
	if e.MaxConnected > 0 {
		active := 0
		for _, c := range e.conns {
			if c.state == RRCConnected {
				active++
			}
		}
		if active >= e.MaxConnected {
			return 0, ErrAdmissionFull
		}
	}
	now := e.Clock()
	e.conns[ranID] = &rrcConn{state: RRCConnected, connectedAt: now, lastUsed: now}
	return e.Cell.RRCSetupDelay, nil
}

// Release tears the RRC connection down (UE detach or radio-link
// failure).
func (e *ENB) Release(ranID string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.conns, ranID)
}

// state reports a UE's RRC state.
func (e *ENB) state(ranID string) RRCState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[ranID]; ok {
		return c.state
	}
	return RRCIdle
}

// Connected counts UEs in RRC connected state.
func (e *ENB) Connected() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, c := range e.conns {
		if c.state == RRCConnected {
			n++
		}
	}
	return n
}

// ForwardNAS relays a NAS envelope for a connected UE. The eNB never
// inspects NAS content — CellBricks' new messages pass through a stock
// eNodeB untouched, which is why the paper can reuse commercial base
// stations.
func (e *ENB) ForwardNAS(ranID string, envelope []byte) ([]byte, error) {
	e.mu.Lock()
	c, ok := e.conns[ranID]
	if ok {
		c.lastUsed = e.Clock()
	}
	relay := e.Relay
	e.mu.Unlock()
	if !ok || c.state != RRCConnected {
		return nil, ErrNotConnected
	}
	if relay == nil {
		return nil, ErrRelayUnset
	}
	return relay(ranID, envelope)
}

// expireIdle releases connections idle longer than the inactivity timer
// (eNBs drop UEs to RRC idle after ~10-20 s of silence).
func (e *ENB) expireIdle(now, timeout time.Duration) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for id, c := range e.conns {
		if now-c.lastUsed > timeout {
			delete(e.conns, id)
			n++
		}
	}
	return n
}
