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
// is gone at once and the next one is connected.
func (a *accessPath) rehome() string {
	a.sim.Disconnect(ServerIP, a.ip)
	return a.connectNext()
}

// pause blacks the current link out for d without dropping what is queued:
// the MNO's intra-provider handover, or a chaos link pause.
func (a *accessPath) pause(d time.Duration) { a.link.PausedUntil = a.sim.Now() + d }

// drive schedules fire at each handover instant and returns the instants:
// at, or the route's statistical schedule drawn from the simulator's
// stream when at is nil.
func (a *accessPath) drive(sc Scenario, at []time.Duration, fire func()) []time.Duration {
	if at == nil {
		at = sc.Route.Handovers(a.sim.Rand(), sc.Night, sc.Duration)
	}
	for _, t := range at {
		a.sim.At(t, fire)
	}
	return at
}

// handover is the package's one mobility event. An MNO handover keeps the
// address and anchor and only pauses the link for mnoOutage: the network
// forwards buffered data to the target eNodeB, so the gap shows as a delay
// spike rather than loss. A CellBricks handover runs lost (the old address
// dies), rehomes, and hands the new address to reattach, the caller's
// re-attach step, which decides when it becomes usable and schedules that
// itself.
func (a *accessPath) handover(sc Scenario, lost func(), reattach func(ip string)) {
	if sc.Arch != ArchCellBricks {
		a.pause(mnoOutage)
		return
	}
	lost()
	reattach(a.rehome())
}

// after is the re-attach step of an app that only waits out the attach:
// found gets the new address d later.
func (a *accessPath) after(d time.Duration, found func(ip string)) func(ip string) {
	return func(ip string) { a.sim.After(d, func() { found(ip) }) }
}
