// Package mptcp implements the host transport layer of CellBricks'
// mobility story (§4.2): a segment-level TCP model (slow start, congestion
// avoidance, duplicate-ACK fast retransmit, RTO) running over the netem
// simulator, and an MPTCP connection layer whose subflows can be torn down
// and re-established as the UE's IP address changes across bTelco
// attachments — including the mainline Linux implementation's hard-coded
// 500 ms address-worker wait period the paper measures around.
//
// Plain TCP (a single subflow that dies with its IP) is the MNO baseline;
// MPTCP with re-subflowing is the CellBricks configuration.
package mptcp

import (
	"time"

	"cellbricks/internal/netem"
)

// MSS is the maximum segment payload size in bytes.
const MSS = 1380

// headerSize approximates IP+TCP header overhead on the wire.
const headerSize = 52

// Segment is the transport PDU carried in netem packets. Its fields are
// ordered widest first so the pooled box fits one 64-byte cache line.
type Segment struct {
	ConnID uint64
	Seq    uint64 // connection-level byte offset
	Len    int
	Ack    uint64        // cumulative connection-level ack
	SentAt time.Duration // for RTT sampling (carried in the "timestamp option")
	// next links the box into its connection's free list while it is pooled.
	next      *Segment
	SubflowID uint32
	// REMOVE_ADDR option: the sender asks the peer to forget this
	// subflow's address (MPTCP RFC 6824 semantics).
	RemoveAddr uint32
	SYN, ACK   bool
	// StaleHint marks an ACK triggered by a fully-duplicate arrival; the
	// sender must not count it toward duplicate-ACK loss detection.
	StaleHint bool
}

// segSlab is how many Segments a pool allocates at once when its free list
// runs dry, as netem does for events and packets.
const segSlab = 16

// segPool recycles Segments within one connection. A Sim is
// single-goroutine, so a plain free list suffices; it is threaded through
// Segment.next and refilled segSlab boxes at a time, so it owns no slice to
// grow. Receive handlers copy a delivered segment by value and return the
// box immediately; senders return a segment only when netem rejects the
// carrying packet — each box is therefore put at most once per trip.
type segPool struct{ free *Segment }

func (p *segPool) get() *Segment {
	s := p.free
	if s == nil {
		slab := new([segSlab]Segment)
		for i := range segSlab - 1 {
			slab[i].next = &slab[i+1]
		}
		s = &slab[0]
	}
	p.free, s.next = s.next, nil
	return s
}

func (p *segPool) put(s *Segment) {
	*s = Segment{next: p.free}
	p.free = s
}

// senderState is one TCP sender: congestion control and retransmission for
// a single subflow. Sequence numbers are connection-level so a new subflow
// resumes where the old one stopped.
type senderState struct {
	sim *netem.Sim

	connID    uint64
	subflowID uint32
	srcIP     string
	dstIP     string
	srcEP     netem.Endpoint
	dstEP     netem.Endpoint
	segs      *segPool

	// Congestion control (byte-based NewReno).
	cwnd     float64
	ssthresh float64

	// Sequence state.
	sndUna uint64 // oldest unacked byte
	sndNxt uint64 // next byte to send
	limit  uint64 // app-provided bytes available (absolute offset)

	// RTT estimation.
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration

	dupAcks    int
	inRecovery bool
	recoverEnd uint64
	rtxNxt     uint64 // next byte to retransmit within the current hole

	rtoTimer *netem.Timer  // owned for the sender's lifetime, re-armed per ACK
	lastProg time.Duration // last time sndUna advanced (RTO restart)
	dead     bool

	admitted *Tally // data segments the network took (the Conn's tally)
}

// Congestion-control constants.
const (
	initialCwnd  = 10 * MSS
	minSsthresh  = 2 * MSS
	initialRTO   = 1 * time.Second
	minRTO       = 200 * time.Millisecond
	maxRTO       = 60 * time.Second
	dupAckThresh = 3
	// rcvWindow caps in-flight data like the peer's advertised receive
	// window would: it bounds how far a fresh slow start can overshoot
	// into the bottleneck queue before the first loss signal arrives.
	rcvWindow = 1 << 20
)

func newSender(sim *netem.Sim, connID uint64, subflowID uint32, src, dst string, segs *segPool, startSeq uint64, admitted *Tally) *senderState {
	if segs == nil {
		segs = &segPool{}
	}
	s := &senderState{
		sim:       sim,
		connID:    connID,
		subflowID: subflowID,
		srcIP:     src,
		dstIP:     dst,
		srcEP:     sim.Endpoint(src),
		dstEP:     sim.Endpoint(dst),
		segs:      segs,
		cwnd:      initialCwnd,
		ssthresh:  1 << 30,
		sndUna:    startSeq,
		sndNxt:    startSeq,
		limit:     startSeq,
		rto:       initialRTO,
		admitted:  admitted,
	}
	s.rtoTimer = sim.NewTimer(s.onRTO)
	return s
}

// supply makes bytes up to absolute offset lim available to send.
func (s *senderState) supply(lim uint64) {
	if lim > s.limit {
		s.limit = lim
	}
	s.trySend()
}

func (s *senderState) inFlight() uint64 { return s.sndNxt - s.sndUna }

// trySend emits as many segments as cwnd allows.
func (s *senderState) trySend() {
	if s.dead {
		return
	}
	for s.sndNxt < s.limit && float64(s.inFlight()) < s.cwnd && s.inFlight() < rcvWindow {
		n := int(s.limit - s.sndNxt)
		if n > MSS {
			n = MSS
		}
		s.emit(s.sndNxt, n)
		s.sndNxt += uint64(n)
	}
	s.armRTO()
}

func (s *senderState) emit(seq uint64, n int) {
	if n <= 0 {
		return
	}
	seg := s.segs.get()
	seg.ConnID = s.connID
	seg.SubflowID = s.subflowID
	seg.Seq = seq
	seg.Len = n
	seg.ACK = true
	seg.SentAt = s.sim.Now()
	pkt := s.sim.GetPacket()
	pkt.Src, pkt.Dst = s.srcIP, s.dstIP
	pkt.SrcEP, pkt.DstEP = s.srcEP, s.dstEP
	pkt.Size = n + headerSize
	pkt.Payload = seg
	if !s.sim.Send(pkt) {
		s.segs.put(seg)
		s.sim.PutPacket(pkt)
		return
	}
	s.admitted.add(n)
}

func (s *senderState) armRTO() {
	if s.dead {
		return
	}
	if s.inFlight() == 0 {
		s.rtoTimer.Stop()
		return
	}
	if !s.rtoTimer.Armed() {
		s.rtoTimer.Reset(s.rto)
	}
}

func (s *senderState) onRTO() {
	if s.dead || s.inFlight() == 0 {
		return
	}
	// Restart rather than fire when the ACK clock made progress since the
	// timer was armed (RFC 6298 §5.3 behaviour).
	if since := s.sim.Now() - s.lastProg; since < s.rto {
		s.rtoTimer.Reset(s.rto - since)
		return
	}
	// Timeout: collapse to one MSS, exponential backoff, retransmit head.
	s.ssthresh = maxF(s.cwnd/2, minSsthresh)
	s.cwnd = MSS
	s.rto *= 2
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	s.dupAcks = 0
	s.inRecovery = false
	// Go-back-N: resume transmission from the oldest unacked byte. The
	// receiver discards duplicates; this is how a stack without SACK
	// escapes multi-hole loss bursts.
	s.sndNxt = s.sndUna
	s.trySend()
	s.armRTO()
}

// handleAck processes a cumulative ACK with an RTT sample.
func (s *senderState) handleAck(ack uint64, sentAt time.Duration, stale bool) {
	if s.dead {
		return
	}
	if sentAt > 0 {
		s.sampleRTT(s.sim.Now() - sentAt)
	}
	switch {
	case ack > s.sndUna:
		acked := ack - s.sndUna
		s.sndUna = ack
		s.lastProg = s.sim.Now()
		// A connection-level cumulative ACK can run past this subflow's
		// send point when the receiver's out-of-order buffer held data
		// from a previous subflow: skip forward rather than resend it.
		if s.sndNxt < s.sndUna {
			s.sndNxt = s.sndUna
		}
		s.dupAcks = 0
		s.rtoTimer.Stop()
		if s.inRecovery {
			if ack >= s.recoverEnd {
				s.inRecovery = false
				s.cwnd = s.ssthresh
			} else {
				// Partial ack: keep filling the hole from sndUna.
				if s.rtxNxt < s.sndUna {
					s.rtxNxt = s.sndUna
				}
				s.retransmitHole()
			}
		} else if s.cwnd < s.ssthresh {
			// Slow start with appropriate byte counting (ABC, RFC 3465):
			// growth per ACK is capped at 2*MSS so a giant cumulative
			// jump cannot open the window into a line-rate burst.
			s.cwnd += minF(float64(acked), 2*MSS)
			if s.cwnd > s.ssthresh {
				s.cwnd = s.ssthresh
			}
		} else {
			// Congestion avoidance: +MSS per RTT.
			s.cwnd += float64(MSS) * float64(MSS) / s.cwnd * (float64(acked) / float64(MSS))
		}
		s.trySend()
	case ack == s.sndUna && s.inFlight() > 0:
		if stale {
			break
		}
		s.dupAcks++
		if s.dupAcks == dupAckThresh && !s.inRecovery {
			// Fast retransmit + fast recovery.
			s.ssthresh = maxF(s.cwnd/2, minSsthresh)
			s.cwnd = s.ssthresh
			s.inRecovery = true
			s.recoverEnd = s.sndNxt
			s.rtxNxt = s.sndUna
			s.retransmitHole()
		} else if s.inRecovery {
			s.retransmitHole()
		}
	}
	s.armRTO()
}

func (s *senderState) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

// kill stops the sender permanently (address invalidated).
func (s *senderState) kill() {
	s.dead = true
	s.rtoTimer.Stop()
}

// retransmitHole resends the recovery window sequentially from rtxNxt
// toward recoverEnd, a couple of segments per ACK event (paced by the ACK
// clock). Without full SACK scoreboards, drop-tail loss leaves many
// interleaved one-segment holes; sequential retransmission (the receiver
// discards duplicates) terminates recovery in one pass instead of one
// round trip per hole.
func (s *senderState) retransmitHole() {
	if s.dead {
		return
	}
	if s.rtxNxt < s.sndUna {
		s.rtxNxt = s.sndUna
	}
	const perAck = 2
	for i := 0; i < perAck && s.rtxNxt < s.recoverEnd; i++ {
		n := int(minU64(uint64(MSS), s.recoverEnd-s.rtxNxt))
		s.emit(s.rtxNxt, n)
		s.rtxNxt += uint64(n)
	}
	s.armRTO()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
