package mptcp

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"cellbricks/internal/netem"
)

// Protocol selects the host transport's migration semantics.
type Protocol int

// Protocols.
const (
	// ProtoMPTCP: RFC 6824-style subflows — a full MP_JOIN three-way
	// handshake from the new address, gated by the address-worker wait.
	ProtoMPTCP Protocol = iota
	// ProtoQUIC: connection-ID-based migration — the client probes the
	// new path (PATH_CHALLENGE) and the server switches to it on receipt,
	// with congestion state reset per RFC 9000 §9.4; there is no
	// address-worker wait. The paper names QUIC as the other deployed
	// transport with this property.
	ProtoQUIC
)

// Config tunes the connection's multipath behaviour.
type Config struct {
	// Multipath enables migration semantics: the connection survives
	// address changes. Disabled = plain TCP (the MNO baseline, which
	// never changes address).
	Multipath bool
	// Protocol selects MPTCP or QUIC migration (default MPTCP).
	Protocol Protocol
	// AddrWorkWait is the delay between a new address becoming available
	// and the stack acting on it — mainline MPTCP hard-codes 500 ms in
	// mptcp_fullmesh.c's address_worker; the paper's "modified" runs set
	// it to zero.
	AddrWorkWait time.Duration
	// Timeout tears the connection down if no address appears after
	// invalidation (60 s default in the paper's description).
	Timeout time.Duration
}

// DefaultConfig is MPTCP as deployed (500 ms wait, 60 s timeout).
func DefaultConfig() Config {
	return Config{Multipath: true, AddrWorkWait: 500 * time.Millisecond, Timeout: 60 * time.Second}
}

// connState is the connection lifecycle.
type connState int

const (
	stateEstablished connState = iota + 1
	stateNoAddress             // address invalidated, waiting for a new one
	stateJoining               // new subflow handshake in progress
	stateClosed
)

// Conn is a one-directional bulk data connection from a fixed server
// address to a mobile client address: the shape of every download workload
// in the paper's evaluation. The struct holds both endpoints' transport
// state; packets between them still traverse the emulated network (loss,
// delay, shaping all apply).
type Conn struct {
	sim *netem.Sim
	id  uint64
	cfg Config

	serverIP string
	clientIP string
	serverEP netem.Endpoint
	clientEP netem.Endpoint

	// segs recycles transport PDUs between the two endpoints; together
	// with the sim's packet pool the steady-state data/ACK exchange runs
	// allocation-free.
	segs segPool

	// Server-side (sender) state.
	sender     *senderState
	subflowSeq uint32
	appLimit   uint64 // absolute byte offset the app has written
	sndUna     uint64 // connection-level: carried across subflows

	// Client-side (receiver) state.
	recvNext  uint64
	ooo       []oooSeg // out-of-order segments beyond recvNext, sorted by seq
	delivered uint64

	// The radio tallies (see Radio).
	admitted, arrived Tally

	// OnDeliver fires at the receiver as in-order bytes arrive.
	OnDeliver func(n int)
	// OnSubflow fires when a new subflow becomes active (for tests and
	// trace instrumentation).
	OnSubflow func(id uint32)

	state        connState
	timeoutTimer *netem.Event
	waitTimer    *netem.Event
}

// nextConnID is atomic because independent sims construct connections
// concurrently (testbed.Runner). The value only demultiplexes segments
// within one sim, so the allocation order across sims is irrelevant.
var nextConnID atomic.Uint64

// NewConn establishes a connection between serverIP and clientIP (a link
// between them must already exist in the simulator). The connection starts
// established — handshake cost for the *initial* connection is not part of
// any experiment window.
func NewConn(sim *netem.Sim, serverIP, clientIP string, cfg Config) *Conn {
	c := &Conn{
		sim:      sim,
		id:       nextConnID.Add(1),
		cfg:      cfg,
		serverIP: serverIP,
		clientIP: clientIP,
		state:    stateEstablished,
	}
	c.sim.Register(serverIP, c.handleAtServer)
	c.sim.Register(clientIP, c.handleAtClient)
	c.serverEP = sim.Endpoint(serverIP)
	c.clientEP = sim.Endpoint(clientIP)
	c.newSubflow()
	return c
}

// sendSeg emits one control/ACK segment from a pooled packet, recycling
// both boxes if the network rejects it at admission.
func (c *Conn) sendSeg(src, dst string, srcEP, dstEP netem.Endpoint, size int, seg *Segment) {
	pkt := c.sim.GetPacket()
	pkt.Src, pkt.Dst = src, dst
	pkt.SrcEP, pkt.DstEP = srcEP, dstEP
	pkt.Size = size
	pkt.Payload = seg
	if !c.sim.Send(pkt) {
		c.segs.put(seg)
		c.sim.PutPacket(pkt)
	}
}

func (c *Conn) newSubflow() {
	c.subflowSeq++
	// No TCP-metrics inheritance: the joined subflow originates from a
	// *new* source address, which misses the kernel's per-(src,dst)
	// metrics cache, so it performs a fresh slow start — the behaviour
	// behind the paper's post-handover ramp-and-overshoot (Fig. 8/9).
	c.sender = newSender(c.sim, c.id, c.subflowSeq, c.serverIP, c.clientIP, &c.segs, c.sndUna, &c.admitted)
	c.sender.supply(c.appLimit)
	if c.OnSubflow != nil {
		c.OnSubflow(c.subflowSeq)
	}
}

// Write makes n more bytes available for transmission (bulk source).
func (c *Conn) Write(n int) {
	c.appLimit += uint64(n)
	if c.state == stateEstablished && c.sender != nil {
		c.sender.supply(c.appLimit)
	}
}

// Delivered reports total in-order bytes delivered at the client.
func (c *Conn) Delivered() uint64 { return c.delivered }

// Tally counts data segments: their payload bytes and their number.
type Tally struct {
	Bytes, Packets uint64
}

func (t *Tally) add(n int) {
	t.Bytes += uint64(n)
	t.Packets++
}

// Sub returns the counts t holds beyond an earlier reading u.
func (t Tally) Sub(u Tally) Tally { return Tally{t.Bytes - u.Bytes, t.Packets - u.Packets} }

// Radio returns the connection's two downlink tallies since it opened:
// data segments the network admitted toward the client, which is what the
// bTelco's gateway counts, and data segments that arrived at the client,
// retransmitted duplicates included, which is what the UE's PDCP counter
// sees. A meter reads them once per report and bills the difference.
func (c *Conn) Radio() (admitted, arrived Tally) { return c.admitted, c.arrived }

// SRTT exposes the active subflow's smoothed RTT (0 when unknown).
func (c *Conn) SRTT() time.Duration {
	if c.sender == nil {
		return 0
	}
	return c.sender.srtt
}

// Closed reports whether the connection has been torn down: by its
// Timeout, or, for plain TCP, by losing its address.
func (c *Conn) Closed() bool { return c.state == stateClosed }

// handleAtClient processes downlink data segments and emits ACKs.
func (c *Conn) handleAtClient(p *netem.Packet) {
	segp, ok := p.Payload.(*Segment)
	if !ok {
		return
	}
	// Copy out and recycle immediately: replies emitted below may reuse
	// the very same box from the pool.
	seg := *segp
	c.segs.put(segp)
	if seg.Len > 0 {
		c.arrived.add(seg.Len)
	}
	if seg.ConnID != c.id || c.state == stateClosed {
		return
	}
	if seg.SYN && seg.ACK {
		if c.cfg.Protocol == ProtoQUIC {
			// PATH_RESPONSE: path validated; no further handshake leg.
			return
		}
		// SYN/ACK of a join handshake: complete with the final ACK.
		out := c.segs.get()
		out.ConnID, out.SubflowID = c.id, seg.SubflowID
		out.ACK, out.SYN = true, false
		out.Ack, out.SentAt = c.recvNext, seg.SentAt
		out.RemoveAddr = seg.RemoveAddr
		c.sendSeg(c.clientIP, c.serverIP, c.clientEP, c.serverEP, headerSize, out)
		return
	}
	if seg.Len == 0 {
		return
	}
	// Data segment: in-order delivery with out-of-order buffering.
	end := seg.Seq + uint64(seg.Len)
	stale := false
	switch {
	case end <= c.recvNext:
		// Fully duplicate (stale retransmission, or data already drained
		// through the out-of-order buffer). Still acknowledge — the peer
		// may have missed the ACK that covered it — but flag the ACK so
		// the sender does not read a stream of stale arrivals as
		// loss-signalling duplicate ACKs (the role DSACK/timestamps play
		// in real stacks).
		stale = true
	case seg.Seq <= c.recvNext:
		c.advance(int(end - c.recvNext))
	default:
		c.bufferOOO(seg.Seq, seg.Len)
	}
	// Drain contiguous out-of-order data. A buffered segment that recvNext
	// has overtaken (a retransmission cut on other boundaries covered its
	// start) is dropped, tail included: the sender resends those bytes.
	k := 0
	for ; k < len(c.ooo) && c.ooo[k].seq <= c.recvNext; k++ {
		if c.ooo[k].seq == c.recvNext {
			c.advance(c.ooo[k].n)
		}
	}
	if k > 0 {
		c.ooo = append(c.ooo[:0], c.ooo[k:]...)
	}
	// ACK (immediate, echoing the timestamp for RTT sampling).
	out := c.segs.get()
	out.ConnID, out.SubflowID = c.id, seg.SubflowID
	out.ACK, out.Ack, out.SentAt = true, c.recvNext, seg.SentAt
	out.StaleHint = stale
	c.sendSeg(c.clientIP, c.serverIP, c.clientEP, c.serverEP, headerSize, out)
}

// oooSeg is one buffered out-of-order segment.
type oooSeg struct {
	seq uint64
	n   int
}

// bufferOOO records segment [seq, seq+n), replacing the length of a segment
// already buffered at the same seq.
func (c *Conn) bufferOOO(seq uint64, n int) {
	i, found := slices.BinarySearchFunc(c.ooo, seq, func(e oooSeg, seq uint64) int {
		return cmp.Compare(e.seq, seq)
	})
	if found {
		c.ooo[i].n = n
		return
	}
	c.ooo = slices.Insert(c.ooo, i, oooSeg{seq, n})
}

func (c *Conn) advance(n int) {
	c.recvNext += uint64(n)
	c.delivered += uint64(n)
	if c.OnDeliver != nil {
		c.OnDeliver(n)
	}
}

// handleAtServer processes ACKs and join handshakes.
func (c *Conn) handleAtServer(p *netem.Packet) {
	segp, ok := p.Payload.(*Segment)
	if !ok {
		return
	}
	seg := *segp
	c.segs.put(segp)
	if seg.ConnID != c.id || c.state == stateClosed {
		return
	}
	if seg.SYN && !seg.ACK {
		// MP_JOIN / PATH_CHALLENGE from the client's new address: reply.
		out := c.segs.get()
		out.ConnID, out.SubflowID = c.id, seg.SubflowID
		out.SYN, out.ACK = true, true
		out.SentAt = c.sim.Now()
		out.RemoveAddr = seg.RemoveAddr
		c.sendSeg(c.serverIP, c.clientIP, c.serverEP, c.clientEP, headerSize, out)
		if c.cfg.Protocol == ProtoQUIC && c.state == stateJoining && seg.SubflowID == c.subflowSeq+1 {
			// QUIC switches to the probed path immediately: the server
			// resumes sending without waiting for a third handshake leg
			// (congestion state reset per RFC 9000 §9.4).
			c.state = stateEstablished
			if c.timeoutTimer != nil {
				c.timeoutTimer.Cancel()
				c.timeoutTimer = nil
			}
			c.newSubflow()
		}
		return
	}
	if c.state == stateJoining && seg.ACK && !seg.SYN && seg.SubflowID == c.subflowSeq+1 {
		// Final ACK of the join: activate the new subflow and honour the
		// REMOVE_ADDR the client sent for its old address.
		c.state = stateEstablished
		if c.timeoutTimer != nil {
			c.timeoutTimer.Cancel()
			c.timeoutTimer = nil
		}
		c.newSubflow()
		return
	}
	if c.sender != nil && seg.SubflowID == c.sender.subflowID && seg.ACK {
		if seg.Ack > c.sndUna {
			c.sndUna = seg.Ack
		}
		c.sender.handleAck(seg.Ack, seg.SentAt, seg.StaleHint)
	}
}

// AddrInvalidated models the baseband deleting the radio bearer: the
// interface loses its address, the subflow goes inactive, and the MPTCP
// stack watches for a new address until Timeout.
func (c *Conn) AddrInvalidated() {
	if c.state == stateClosed {
		return
	}
	if c.sender != nil {
		c.sender.kill()
	}
	c.sim.Unregister(c.clientIP)
	if !c.cfg.Multipath {
		// Plain TCP dies with its address.
		c.close()
		return
	}
	c.state = stateNoAddress
	if c.waitTimer != nil {
		c.waitTimer.Cancel()
		c.waitTimer = nil
	}
	timeout := c.cfg.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	c.timeoutTimer = c.sim.After(timeout, c.close)
}

// AddrAvailable models the interface regaining an address after a new
// attachment: after the address-worker wait period, the client initiates a
// join handshake from the new address.
func (c *Conn) AddrAvailable(newIP string) {
	if c.state != stateNoAddress {
		return
	}
	c.clientIP = newIP
	c.sim.Register(newIP, c.handleAtClient)
	c.clientEP = c.sim.Endpoint(newIP)
	start := func() {
		if c.state != stateNoAddress {
			return
		}
		c.state = stateJoining
		c.sendJoin()
	}
	if c.cfg.AddrWorkWait > 0 {
		c.waitTimer = c.sim.After(c.cfg.AddrWorkWait, start)
	} else {
		start()
	}
}

// sendJoin emits the MP_JOIN SYN from the new address, carrying
// REMOVE_ADDR for the stale subflow, and arms a retry in case the
// handshake is lost (the connection-level Timeout still bounds the total
// wait).
func (c *Conn) sendJoin() {
	out := c.segs.get()
	out.ConnID, out.SubflowID = c.id, c.subflowSeq+1
	out.SYN, out.SentAt = true, c.sim.Now()
	out.RemoveAddr = c.subflowSeq
	c.sendSeg(c.clientIP, c.serverIP, c.clientEP, c.serverEP, headerSize, out)
	c.waitTimer = c.sim.After(time.Second, func() {
		if c.state == stateJoining {
			c.sendJoin()
		}
	})
}

func (c *Conn) close() {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	if c.sender != nil {
		c.sender.kill()
	}
	if c.timeoutTimer != nil {
		c.timeoutTimer.Cancel()
	}
	if c.waitTimer != nil {
		c.waitTimer.Cancel()
	}
	c.sim.Unregister(c.serverIP)
	c.sim.Unregister(c.clientIP)
}
