package testbed

import (
	"bytes"
	"fmt"
	"time"

	"cellbricks/internal/netem"
)

// brokerMailbox is the control plane the byzantine and storm worlds share:
// a broker endpoint on shard 0, one gateway endpoint per group on that
// group's shard, and closures shipped between them as packet payloads. All
// broker state is therefore touched only by shard-0 handlers, in canonical
// packet-arrival order, whatever the shard count.
type brokerMailbox struct {
	world    *netem.World
	sim0     *netem.Sim
	broker   string // broker endpoint name
	gwFormat string // gateway endpoint name, formatted with the group index
	gateways []mailboxGateway

	runErr error
}

type mailboxGateway struct {
	sim  *netem.Sim
	name string
}

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

func newBrokerMailbox(seed int64, shards int, broker, gwFormat string) brokerMailbox {
	world := netem.NewWorld(seed, shards)
	return brokerMailbox{world: world, sim0: world.Shard(0), broker: broker, gwFormat: gwFormat}
}

// placeBroker creates the broker endpoint; gateways are added after it.
func (m *brokerMailbox) placeBroker() {
	m.world.Place(m.broker, 0)
	m.world.Register(m.broker, runCtrlMsg)
}

// addGateway creates the next group's gateway on the given shard, linked
// to the broker, and returns that shard's Sim. The link delays are
// distinct prime-offset values, so control packets from different groups
// never tie at the broker.
func (m *brokerMailbox) addGateway(shard int) *netem.Sim {
	g := len(m.gateways)
	gw := mailboxGateway{sim: m.world.Shard(shard), name: fmt.Sprintf(m.gwFormat, g)}
	m.gateways = append(m.gateways, gw)
	m.world.Place(gw.name, shard)
	m.world.Register(gw.name, runCtrlMsg)
	m.world.Connect(gw.name, m.broker, &netem.Link{
		Delay: 10*time.Millisecond + time.Duration(g)*1009*time.Nanosecond,
	})
	return gw.sim
}

// toBroker ships a closure to the broker endpoint over group g's gateway
// link; it executes on shard 0 in canonical arrival order.
func (m *brokerMailbox) toBroker(g int, fn func()) {
	gw := m.gateways[g]
	pkt := gw.sim.GetPacket()
	pkt.Src, pkt.Dst, pkt.Size = gw.name, m.broker, mailboxCtrlSize
	pkt.Payload = ctrlMsg{fn}
	gw.sim.Send(pkt)
}

// toGroup ships a closure from the broker back to group g's gateway; it
// executes on g's shard.
func (m *brokerMailbox) toGroup(g int, fn func()) {
	pkt := m.sim0.GetPacket()
	pkt.Src, pkt.Dst, pkt.Size = m.broker, m.gateways[g].name, mailboxCtrlSize
	pkt.Payload = ctrlMsg{fn}
	m.sim0.Send(pkt)
}

// fail records the first error of the run.
func (m *brokerMailbox) fail(err error) {
	if m.runErr == nil && err != nil {
		m.runErr = err
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
