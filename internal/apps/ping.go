package apps

import (
	"time"

	"cellbricks/internal/netem"
)

// probe is the ping payload.
type probe struct {
	Seq    uint64
	SentAt time.Duration
	next   *probe // free-list link while pooled
	Echo   bool
}

// Pinger measures round-trip latency with periodic small probes (the
// paper's "ping" benchmark; Table 1 reports p50).
type Pinger struct {
	sim      *netem.Sim
	clientIP string
	serverIP string
	clientEP netem.Endpoint
	serverEP netem.Endpoint
	interval time.Duration

	seq     uint64
	sent    uint64
	samples []time.Duration
	free    *probe // probe free list; see getProbe/putProbe
	stopped bool
}

// boxSlab is how many payload boxes a pool allocates at once when its free
// list runs dry, as netem does for events and packets.
const boxSlab = 16

func (p *Pinger) getProbe() *probe {
	pr := p.free
	if pr == nil {
		slab := new([boxSlab]probe)
		for i := range boxSlab - 1 {
			slab[i].next = &slab[i+1]
		}
		pr = &slab[0]
	}
	p.free, pr.next = pr.next, nil
	return pr
}

func (p *Pinger) putProbe(pr *probe) {
	*pr = probe{next: p.free}
	p.free = pr
}

// NewPinger wires a prober between clientIP and serverIP (a link must
// exist). interval defaults to 200 ms.
func NewPinger(sim *netem.Sim, clientIP, serverIP string, interval time.Duration) *Pinger {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	p := &Pinger{sim: sim, clientIP: clientIP, serverIP: serverIP, interval: interval}
	sim.Register(serverIP, p.handleAtServer)
	sim.Register(clientIP, p.handleAtClient)
	p.serverEP = sim.Endpoint(serverIP)
	p.clientEP = sim.Endpoint(clientIP)
	return p
}

func (p *Pinger) handleAtServer(pkt *netem.Packet) {
	pr, ok := pkt.Payload.(*probe)
	if !ok || pr.Echo {
		return
	}
	// Reuse the request's probe box for the echo: the inbound packet is
	// recycled after this handler, but its payload is ours now.
	pr.Echo = true
	out := p.sim.GetPacket()
	out.Src, out.Dst = p.serverIP, pkt.Src
	out.SrcEP, out.DstEP = pkt.DstEP, pkt.SrcEP
	out.Size = pkt.Size
	out.Payload = pr
	if !p.sim.Send(out) {
		p.putProbe(pr)
		p.sim.PutPacket(out)
	}
}

func (p *Pinger) handleAtClient(pkt *netem.Packet) {
	pr, ok := pkt.Payload.(*probe)
	if !ok || !pr.Echo {
		return
	}
	p.samples = append(p.samples, p.sim.Now()-pr.SentAt)
	p.putProbe(pr)
}

// SetClientIP rehomes the prober after a host-driven mobility event.
func (p *Pinger) SetClientIP(newIP string) {
	p.sim.Unregister(p.clientIP)
	p.clientIP = newIP
	p.sim.Register(newIP, p.handleAtClient)
	p.clientEP = p.sim.Endpoint(newIP)
}

// InvalidateClient drops the prober's address (probes in this window are
// lost, as during a CellBricks re-attachment).
func (p *Pinger) InvalidateClient() {
	p.sim.Unregister(p.clientIP)
}

// Run probes for dur and returns RTT samples collected.
func (p *Pinger) Run(dur time.Duration) []time.Duration {
	end := p.sim.Now() + dur
	var tick *netem.Timer
	send := func() {
		if p.stopped || p.sim.Now() >= end {
			return
		}
		p.seq++
		p.sent++
		pr := p.getProbe()
		pr.Seq, pr.SentAt = p.seq, p.sim.Now()
		pkt := p.sim.GetPacket()
		pkt.Src, pkt.Dst = p.clientIP, p.serverIP
		pkt.SrcEP, pkt.DstEP = p.clientEP, p.serverEP
		pkt.Size = 64
		pkt.Payload = pr
		if !p.sim.Send(pkt) {
			p.putProbe(pr)
			p.sim.PutPacket(pkt)
		}
		tick.Reset(p.interval)
	}
	tick = p.sim.NewTimer(send)
	send()
	p.sim.RunUntil(end + time.Second) // drain trailing echoes
	return p.samples
}

// Stats summarizes the run.
func (p *Pinger) Stats() (p50 time.Duration, lossRate float64) {
	p50 = Percentile(p.samples, 50)
	if p.sent > 0 {
		lossRate = 1 - float64(len(p.samples))/float64(p.sent)
	}
	return
}
