package nas

import (
	"errors"
	"fmt"

	"cellbricks/internal/codec"
)

// Message type identifiers. The legacy set mirrors the EPS attach call
// flow; the SAP set carries the CellBricks secure attachment protocol as
// new NAS messages, exactly how the prototype extends Magma's AGW and
// srsUE ("we define new NAS messages and handlers").
const (
	MsgAttachRequestLegacy byte = iota + 1
	MsgAuthenticationRequest
	MsgAuthenticationResponse
	MsgSecurityModeCommand
	MsgSecurityModeComplete
	MsgAttachRequestSAP
	MsgAttachAccept
	MsgAttachReject
	MsgDetachRequest
	MsgDetachAccept
)

// Message is a decodable NAS message. Its body is its fields, in wire
// order; the Coder goes in and out by value, so it does not escape through
// the interface.
type Message interface {
	Type() byte
	fields(codec.Coder) codec.Coder
}

// ErrUnknownMessage is returned by Decode for unrecognized type bytes.
var ErrUnknownMessage = errors.New("nas: unknown message type")

// Encode serializes a NAS message with its type byte, in a buffer of
// exactly its size.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, EncodedLen(m)), m)
}

// EncodedLen is the size of m's encoding, type byte included: what a
// caller framing m in a buffer of its own sizes that buffer by.
func EncodedLen(m Message) int { return 1 + codec.Size(m.fields) }

// AppendEncode serializes m (type byte + body) onto dst and returns the
// extended slice — the allocation-free path for callers that reuse a
// scratch buffer.
func AppendEncode(dst []byte, m Message) []byte {
	return codec.Append(append(dst, m.Type()), m.fields)
}

// Decode parses a NAS message.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTooShort
	}
	var m Message
	switch b[0] {
	case MsgAttachRequestLegacy:
		m = &AttachRequestLegacy{}
	case MsgAuthenticationRequest:
		m = &AuthenticationRequest{}
	case MsgAuthenticationResponse:
		m = &AuthenticationResponse{}
	case MsgSecurityModeCommand:
		m = &SecurityModeCommand{}
	case MsgSecurityModeComplete:
		m = &SecurityModeComplete{}
	case MsgAttachRequestSAP:
		m = &AttachRequestSAP{}
	case MsgAttachAccept:
		m = &AttachAccept{}
	case MsgAttachReject:
		m = &AttachReject{}
	case MsgDetachRequest:
		m = &DetachRequest{}
	case MsgDetachAccept:
		m = &DetachAccept{}
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownMessage, b[0])
	}
	// Bodies are codec fields; its errors stay nas's own at this boundary.
	switch err := codec.Decode(b[1:], m.fields); {
	case err == nil:
		return m, nil
	case errors.Is(err, codec.ErrShort):
		return nil, ErrTooShort
	default:
		return nil, fmt.Errorf("nas: message 0x%02x: %w", b[0], err)
	}
}

// --- legacy attach (EPS-AKA baseline) ---

// AttachRequestLegacy opens the baseline attach: the UE identifies itself
// by IMSI (in the clear, as in EPS — the IMSI-catcher exposure CellBricks
// closes).
type AttachRequestLegacy struct {
	IMSI         string
	Capabilities uint32
}

func (*AttachRequestLegacy) Type() byte { return MsgAttachRequestLegacy }
func (m *AttachRequestLegacy) fields(c codec.Coder) codec.Coder {
	c.String(&m.IMSI)
	c.Uint32(&m.Capabilities)
	return c
}

// AuthenticationRequest carries the AKA challenge (RAND, AUTN).
type AuthenticationRequest struct {
	RAND [16]byte
	AUTN []byte
}

func (*AuthenticationRequest) Type() byte { return MsgAuthenticationRequest }
func (m *AuthenticationRequest) fields(c codec.Coder) codec.Coder {
	c.Fixed(m.RAND[:])
	c.Bytes(&m.AUTN)
	return c
}

// AuthenticationResponse carries RES.
type AuthenticationResponse struct{ RES []byte }

func (*AuthenticationResponse) Type() byte { return MsgAuthenticationResponse }
func (m *AuthenticationResponse) fields(c codec.Coder) codec.Coder {
	c.Bytes(&m.RES)
	return c
}

// SecurityModeCommand selects algorithms and replays the UE capabilities
// (bidding-down protection).
type SecurityModeCommand struct {
	CipherAlg    byte
	IntegrityAlg byte
	ReplayedCaps uint32
}

func (*SecurityModeCommand) Type() byte { return MsgSecurityModeCommand }
func (m *SecurityModeCommand) fields(c codec.Coder) codec.Coder {
	c.Byte(&m.CipherAlg)
	c.Byte(&m.IntegrityAlg)
	c.Uint32(&m.ReplayedCaps)
	return c
}

// SecurityModeComplete acknowledges SMC under the new context.
type SecurityModeComplete struct{}

func (*SecurityModeComplete) Type() byte                       { return MsgSecurityModeComplete }
func (*SecurityModeComplete) fields(c codec.Coder) codec.Coder { return c }

// --- CellBricks SAP attach ---

// AttachRequestSAP carries the UE's sealed+signed SAP authentication
// request (an opaque sap.AuthReqU blob) plus the broker identifier the
// bTelco needs for routing. The bTelco never sees a cleartext UE
// identifier.
type AttachRequestSAP struct {
	BrokerID string
	AuthReqU []byte
}

func (*AttachRequestSAP) Type() byte { return MsgAttachRequestSAP }
func (m *AttachRequestSAP) fields(c codec.Coder) codec.Coder {
	c.String(&m.BrokerID)
	c.Bytes(&m.AuthReqU)
	return c
}

// AttachAccept completes either attach flow. For SAP it carries the
// broker's sealed authRespU so the UE can authenticate the broker and
// extract ss; for the legacy flow AuthRespU is empty.
type AttachAccept struct {
	SessionID uint64
	IP        string
	BearerID  uint32
	QCI       byte
	DLAmbrBps uint64
	ULAmbrBps uint64
	AuthRespU []byte
}

func (*AttachAccept) Type() byte { return MsgAttachAccept }
func (m *AttachAccept) fields(c codec.Coder) codec.Coder {
	c.Uint64(&m.SessionID)
	c.String(&m.IP)
	c.Uint32(&m.BearerID)
	c.Byte(&m.QCI)
	c.Uint64(&m.DLAmbrBps)
	c.Uint64(&m.ULAmbrBps)
	c.Bytes(&m.AuthRespU)
	return c
}

// AttachReject reports a failed attach with a cause string. RetryAfterMS,
// when non-zero, carries a degraded broker's load-shedding hint through
// the NAS layer: the UE should back off at least that long before
// retrying (the attach path's typed retry-after signal).
type AttachReject struct {
	Cause        string
	RetryAfterMS uint32
}

func (*AttachReject) Type() byte { return MsgAttachReject }
func (m *AttachReject) fields(c codec.Coder) codec.Coder {
	c.String(&m.Cause)
	c.Uint32(&m.RetryAfterMS)
	return c
}

// DetachRequest tears down the attachment (host-driven in CellBricks).
type DetachRequest struct{ SessionID uint64 }

func (*DetachRequest) Type() byte { return MsgDetachRequest }
func (m *DetachRequest) fields(c codec.Coder) codec.Coder {
	c.Uint64(&m.SessionID)
	return c
}

// DetachAccept acknowledges a detach.
type DetachAccept struct{ SessionID uint64 }

func (*DetachAccept) Type() byte { return MsgDetachAccept }
func (m *DetachAccept) fields(c codec.Coder) codec.Coder {
	c.Uint64(&m.SessionID)
	return c
}
