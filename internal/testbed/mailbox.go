package testbed

import (
	"bytes"
	"fmt"
	"time"

	"cellbricks/internal/netem"
)

// This file is the grouped world's control plane (groupedWorld, grouped.go):
// the gateways and the closures shipped between them and the broker
// endpoint.

// mailboxCtrlSize is the size of every control packet.
const mailboxCtrlSize = 600

// ctrlMsg is a control-plane packet payload: a closure executed on the
// destination endpoint's shard.
type ctrlMsg struct{ fn func() }

func runCtrlMsg(p *netem.Packet) {
	if m, ok := p.Payload.(ctrlMsg); ok {
		m.fn()
	}
}

// addGateway creates the next group's gateway on the given shard, linked
// to the broker, and returns that shard's Sim. The link delays are
// distinct prime-offset values, so control packets from different groups
// never tie at the broker.
func (w *groupedWorld) addGateway(shard int) *netem.Sim {
	g := len(w.gateways)
	gw := mailboxGateway{sim: w.world.Shard(shard), name: fmt.Sprintf("%s-gw-%d", w.prefix, g)}
	w.gateways = append(w.gateways, gw)
	w.world.Place(gw.name, shard)
	w.world.Register(gw.name, runCtrlMsg)
	w.world.Connect(gw.name, w.broker, &netem.Link{
		Delay: 10*time.Millisecond + time.Duration(g)*1009*time.Nanosecond,
	})
	return gw.sim
}

// toBroker ships a closure to the broker endpoint over group g's gateway
// link; it executes on shard 0 in canonical arrival order.
func (w *groupedWorld) toBroker(g int, fn func()) {
	gw := w.gateways[g]
	pkt := gw.sim.GetPacket()
	pkt.Src, pkt.Dst, pkt.Size = gw.name, w.broker, mailboxCtrlSize
	pkt.Payload = ctrlMsg{fn}
	gw.sim.Send(pkt)
}

// toGroup ships a closure from the broker back to group g's gateway; it
// executes on g's shard.
func (w *groupedWorld) toGroup(g int, fn func()) {
	pkt := w.sim0.GetPacket()
	pkt.Src, pkt.Dst, pkt.Size = w.broker, w.gateways[g].name, mailboxCtrlSize
	pkt.Payload = ctrlMsg{fn}
	w.sim0.Send(pkt)
}

// fail records the first error of the run.
func (w *groupedWorld) fail(err error) {
	if w.runErr == nil && err != nil {
		w.runErr = err
	}
}

// latticeAt returns the first instant strictly after base on the entity's
// private lattice: whole milliseconds plus its sub-millisecond phase.
func latticeAt(base, phase time.Duration) time.Duration {
	t := base/time.Millisecond*time.Millisecond + phase
	for t <= base {
		t += time.Millisecond
	}
	return t
}

// entitySeed is the 32-byte key seed of the idx-th principal of a kind.
func entitySeed(tag byte, idx int) []byte {
	b := bytes.Repeat([]byte{tag}, 32)
	b[0], b[1] = byte(idx), byte(idx>>8)
	return b
}
