// Package epc is the cellular core network (the Magma-AGW-like EPC): the
// control plane that terminates NAS signalling and runs both attach
// procedures (legacy EPS-AKA with its two subscriber-DB round trips, and
// the CellBricks SAP flow with one broker round trip), the user plane
// (bearers, per-session usage counters, AMBR policing), the IP address
// pool, and the subscriber database for the legacy flow.
package epc

import (
	"errors"
	"strconv"
	"sync"
)

// ErrPoolExhausted is returned when no addresses remain.
var ErrPoolExhausted = errors.New("epc: IP pool exhausted")

// IPAllocator hands out addresses from a /16-like pool. The cellular core
// assigns an address at session establishment ("T assigns an IP address
// to U") and reclaims it at detach.
type IPAllocator struct {
	prefix string // e.g. "10.45"

	mu    sync.Mutex
	next  int
	freed []int
	inUse map[string]int
}

// NewIPAllocator creates a pool under prefix (two octets, e.g. "10.45").
func NewIPAllocator(prefix string) *IPAllocator {
	return &IPAllocator{prefix: prefix, next: 1, inUse: make(map[string]int)}
}

// format is the address of pool slot n: prefix.(n/250).(n%250+1), built in
// a stack buffer so the string is its one allocation.
func (a *IPAllocator) format(n int) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, a.prefix...)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(n/250), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(n%250+1), 10)
	return string(buf)
}

// Allocate returns a fresh address.
func (a *IPAllocator) Allocate() (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int
	if len(a.freed) > 0 {
		n = a.freed[len(a.freed)-1]
		a.freed = a.freed[:len(a.freed)-1]
	} else {
		if a.next >= 250*250 {
			return "", ErrPoolExhausted
		}
		n = a.next
		a.next++
	}
	ip := a.format(n)
	a.inUse[ip] = n
	return ip, nil
}

// Release returns an address to the pool. Unknown addresses are ignored.
func (a *IPAllocator) Release(ip string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n, ok := a.inUse[ip]; ok {
		delete(a.inUse, ip)
		a.freed = append(a.freed, n)
	}
}
