package testbed

import (
	"fmt"
	"time"

	"cellbricks/internal/mobility"
	"cellbricks/internal/netem"
)

// accessPath is a UE's emulated cellular access (DESIGN.md §2.6): the
// operator model that builds tower links, and the address and radio link
// the UE currently holds toward ServerIP. Addresses are prefix-0, prefix-1,
// … — one per attachment, as a CellBricks UE gets a new IP from every
// bTelco.
type accessPath struct {
	sim    *netem.Sim
	op     *mobility.Operator
	route  mobility.Route
	night  bool
	prefix string
	idx    int
	ip     string
	link   *netem.Link
}

// newAccessPath connects the first address. seed is the scenario seed; the
// operator's policer draws from seed+1 so it never shares the simulator's
// stream.
func newAccessPath(sim *netem.Sim, seed int64, route mobility.Route, night bool, prefix string) *accessPath {
	a := &accessPath{sim: sim, op: mobility.NewOperator(seed + 1), route: route, night: night, prefix: prefix, idx: -1}
	a.connectNext()
	return a
}

// connectNext brings up the next address behind a fresh tower link (new
// queue, the subscriber's persistent policer) and makes it current.
func (a *accessPath) connectNext() string {
	a.idx++
	a.ip = fmt.Sprintf("%s-%d", a.prefix, a.idx)
	a.link = a.op.CellularLink(a.route, a.night)
	a.sim.Connect(ServerIP, a.ip, a.link)
	return a.ip
}

// rehome is the data-plane half of a CellBricks handover: the old address
// is gone at once and the next one is connected. When the new address
// becomes usable — after the attach — is the caller's business.
func (a *accessPath) rehome() string {
	a.sim.Disconnect(ServerIP, a.ip)
	return a.connectNext()
}

// pause blacks the current link out for d without dropping what is queued:
// the MNO's intra-provider handover, or a chaos link pause.
func (a *accessPath) pause(d time.Duration) { a.link.PausedUntil = a.sim.Now() + d }

// drive schedules the scenario's statistical handover instants for an
// application that manages its own address: a CellBricks handover calls
// lost, rehomes, and hands the new address to found once the attach
// latency has passed; an MNO handover only pauses the link.
func (a *accessPath) drive(sc Scenario, lost func(), found func(ip string)) {
	for _, at := range sc.Route.Handovers(a.sim.Rand(), sc.Night, sc.Duration) {
		a.sim.At(at, func() {
			if sc.Arch != ArchCellBricks {
				a.pause(sc.MNOOutage)
				return
			}
			lost()
			newIP := a.rehome()
			a.sim.After(sc.AttachLatency, func() { found(newIP) })
		})
	}
}
