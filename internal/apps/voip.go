package apps

import (
	"time"

	"cellbricks/internal/netem"
)

// rtpPacket is a CBR voice frame.
type rtpPacket struct {
	Seq    uint64
	SentAt time.Duration
	next   *rtpPacket // free-list link while pooled
}

// VoIPResult summarizes a call.
type VoIPResult struct {
	MOS      float64
	Loss     float64
	AvgDelay time.Duration
	Jitter   time.Duration
	Received uint64
	Sent     uint64
}

// VoIP models a pjsua-style call: the server sends a 50 pps / 160 B RTP
// stream (G.711 at ~30 kbps, matching the paper's "VoIP ... requiring
// ≈30 kbps"). On an IP change the client issues a SIP re-INVITE (one
// signalling round trip) before media resumes to the new address — the
// paper's fallback for apps that do not ride MPTCP.
type VoIP struct {
	sim      *netem.Sim
	clientIP string
	serverIP string
	clientEP netem.Endpoint
	serverEP netem.Endpoint

	free *rtpPacket // frame free list

	seq      uint64
	sent     uint64
	received uint64
	delays   []time.Duration
	// RFC 3550 interarrival jitter state.
	jitter    float64
	lastDelay time.Duration
	haveLast  bool

	active  bool
	stopped bool
}

// frameInterval and frameSize define the CBR stream.
const (
	frameInterval = 20 * time.Millisecond
	frameSize     = 160 + 40 // payload + RTP/UDP/IP headers
)

// NewVoIP wires a call between clientIP (listener) and serverIP (media
// source).
func NewVoIP(sim *netem.Sim, clientIP, serverIP string) *VoIP {
	v := &VoIP{sim: sim, clientIP: clientIP, serverIP: serverIP, active: true}
	sim.Register(clientIP, v.handleMedia)
	v.clientEP = sim.Endpoint(clientIP)
	v.serverEP = sim.Endpoint(serverIP)
	return v
}

func (v *VoIP) getFrame() *rtpPacket {
	f := v.free
	if f == nil {
		slab := new([boxSlab]rtpPacket)
		for i := range boxSlab - 1 {
			slab[i].next = &slab[i+1]
		}
		f = &slab[0]
	}
	v.free, f.next = f.next, nil
	return f
}

func (v *VoIP) putFrame(f *rtpPacket) {
	*f = rtpPacket{next: v.free}
	v.free = f
}

func (v *VoIP) handleMedia(pkt *netem.Packet) {
	rtp, ok := pkt.Payload.(*rtpPacket)
	if !ok {
		return
	}
	defer v.putFrame(rtp)
	v.received++
	delay := v.sim.Now() - rtp.SentAt
	v.delays = append(v.delays, delay)
	if v.haveLast {
		d := delay - v.lastDelay
		if d < 0 {
			d = -d
		}
		// J += (|D| - J)/16 per RFC 3550.
		v.jitter += (float64(d) - v.jitter) / 16
	}
	v.lastDelay = delay
	v.haveLast = true
}

// InvalidateClient models the address loss at detachment: media to the old
// address is lost.
func (v *VoIP) InvalidateClient() {
	v.sim.Unregister(v.clientIP)
	v.active = false
}

// Rehome completes the SIP re-INVITE for the client's new address: one
// signalling round trip after the new attachment, then media resumes.
func (v *VoIP) Rehome(newIP string, signalRTT time.Duration) {
	v.clientIP = newIP
	v.clientEP = v.sim.Endpoint(newIP)
	v.sim.After(signalRTT, func() {
		if v.stopped {
			return
		}
		v.sim.Register(newIP, v.handleMedia)
		v.active = true
	})
}

// Run streams for dur and returns call-quality metrics.
func (v *VoIP) Run(dur time.Duration) VoIPResult {
	end := v.sim.Now() + dur
	var tick *netem.Timer
	send := func() {
		if v.stopped || v.sim.Now() >= end {
			return
		}
		v.seq++
		v.sent++
		f := v.getFrame()
		f.Seq, f.SentAt = v.seq, v.sim.Now()
		pkt := v.sim.GetPacket()
		pkt.Src, pkt.Dst = v.serverIP, v.clientIP
		pkt.SrcEP, pkt.DstEP = v.serverEP, v.clientEP
		pkt.Size = frameSize
		pkt.Payload = f
		if !v.sim.Send(pkt) {
			v.putFrame(f)
			v.sim.PutPacket(pkt)
		}
		tick.Reset(frameInterval)
	}
	tick = v.sim.NewTimer(send)
	send()
	v.sim.RunUntil(end + time.Second)
	v.stopped = true

	res := VoIPResult{Sent: v.sent, Received: v.received}
	if v.sent > 0 {
		res.Loss = 1 - float64(v.received)/float64(v.sent)
	}
	if len(v.delays) > 0 {
		var sum time.Duration
		for _, d := range v.delays {
			sum += d
		}
		res.AvgDelay = sum / time.Duration(len(v.delays))
	}
	res.Jitter = time.Duration(v.jitter)
	res.MOS = MOS(res.AvgDelay, res.Loss, res.Jitter)
	return res
}
