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
	MsgSessionRequest
	MsgSessionAccept
)

// Message is a decodable NAS message.
type Message interface {
	Type() byte
	appendBody([]byte) []byte
	unmarshalBody([]byte) error
}

// ErrUnknownMessage is returned by Decode for unrecognized type bytes.
var ErrUnknownMessage = errors.New("nas: unknown message type")

// Encode serializes a NAS message with its type byte.
func Encode(m Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode serializes m (type byte + body) onto dst and returns the
// extended slice — the allocation-free path for callers that reuse a
// scratch buffer.
func AppendEncode(dst []byte, m Message) []byte {
	dst = append(dst, m.Type())
	return m.appendBody(dst)
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
	case MsgSessionRequest:
		m = &SessionRequest{}
	case MsgSessionAccept:
		m = &SessionAccept{}
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownMessage, b[0])
	}
	// Bodies are codec fields; its errors stay nas's own at this boundary.
	switch err := m.unmarshalBody(b[1:]); {
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
func (m *AttachRequestLegacy) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.String(m.IMSI)
	w.Uint32(m.Capabilities)
	return w.Out()
}
func (m *AttachRequestLegacy) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.IMSI = r.String()
	m.Capabilities = r.Uint32()
	return r.Done()
}

// AuthenticationRequest carries the AKA challenge (RAND, AUTN).
type AuthenticationRequest struct {
	RAND [16]byte
	AUTN []byte
}

func (*AuthenticationRequest) Type() byte { return MsgAuthenticationRequest }
func (m *AuthenticationRequest) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Bytes(m.RAND[:])
	w.Bytes(m.AUTN)
	return w.Out()
}
func (m *AuthenticationRequest) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	rnd := r.Bytes()
	m.AUTN = r.BytesCopy()
	if err := r.Done(); err != nil {
		return err
	}
	if len(rnd) != 16 {
		return fmt.Errorf("RAND length %d", len(rnd))
	}
	copy(m.RAND[:], rnd)
	return nil
}

// AuthenticationResponse carries RES.
type AuthenticationResponse struct{ RES []byte }

func (*AuthenticationResponse) Type() byte { return MsgAuthenticationResponse }
func (m *AuthenticationResponse) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Bytes(m.RES)
	return w.Out()
}
func (m *AuthenticationResponse) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.RES = r.BytesCopy()
	return r.Done()
}

// SecurityModeCommand selects algorithms and replays the UE capabilities
// (bidding-down protection).
type SecurityModeCommand struct {
	CipherAlg    byte
	IntegrityAlg byte
	ReplayedCaps uint32
}

func (*SecurityModeCommand) Type() byte { return MsgSecurityModeCommand }
func (m *SecurityModeCommand) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Byte(m.CipherAlg)
	w.Byte(m.IntegrityAlg)
	w.Uint32(m.ReplayedCaps)
	return w.Out()
}
func (m *SecurityModeCommand) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.CipherAlg = r.Byte()
	m.IntegrityAlg = r.Byte()
	m.ReplayedCaps = r.Uint32()
	return r.Done()
}

// SecurityModeComplete acknowledges SMC under the new context.
type SecurityModeComplete struct{}

func (*SecurityModeComplete) Type() byte                   { return MsgSecurityModeComplete }
func (*SecurityModeComplete) appendBody(b []byte) []byte   { return b }
func (*SecurityModeComplete) unmarshalBody(b []byte) error { return codec.NewReader(b).Done() }

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
func (m *AttachRequestSAP) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.String(m.BrokerID)
	w.Bytes(m.AuthReqU)
	return w.Out()
}
func (m *AttachRequestSAP) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.BrokerID = r.String()
	m.AuthReqU = r.BytesCopy()
	return r.Done()
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
func (m *AttachAccept) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Uint64(m.SessionID)
	w.String(m.IP)
	w.Uint32(m.BearerID)
	w.Byte(m.QCI)
	w.Uint64(m.DLAmbrBps)
	w.Uint64(m.ULAmbrBps)
	w.Bytes(m.AuthRespU)
	return w.Out()
}
func (m *AttachAccept) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.SessionID = r.Uint64()
	m.IP = r.String()
	m.BearerID = r.Uint32()
	m.QCI = r.Byte()
	m.DLAmbrBps = r.Uint64()
	m.ULAmbrBps = r.Uint64()
	m.AuthRespU = r.BytesCopy()
	return r.Done()
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
func (m *AttachReject) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.String(m.Cause)
	w.Uint32(m.RetryAfterMS)
	return w.Out()
}
func (m *AttachReject) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.Cause = r.String()
	m.RetryAfterMS = r.Uint32()
	return r.Done()
}

// DetachRequest tears down the attachment (host-driven in CellBricks).
type DetachRequest struct{ SessionID uint64 }

func (*DetachRequest) Type() byte { return MsgDetachRequest }
func (m *DetachRequest) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Uint64(m.SessionID)
	return w.Out()
}
func (m *DetachRequest) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.SessionID = r.Uint64()
	return r.Done()
}

// DetachAccept acknowledges a detach.
type DetachAccept struct{ SessionID uint64 }

func (*DetachAccept) Type() byte { return MsgDetachAccept }
func (m *DetachAccept) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Uint64(m.SessionID)
	return w.Out()
}
func (m *DetachAccept) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.SessionID = r.Uint64()
	return r.Done()
}

// SessionRequest asks for an additional PDN session/bearer.
type SessionRequest struct {
	SessionID uint64
	APN       string
	QCI       byte
}

func (*SessionRequest) Type() byte { return MsgSessionRequest }
func (m *SessionRequest) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Uint64(m.SessionID)
	w.String(m.APN)
	w.Byte(m.QCI)
	return w.Out()
}
func (m *SessionRequest) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.SessionID = r.Uint64()
	m.APN = r.String()
	m.QCI = r.Byte()
	return r.Done()
}

// SessionAccept grants the additional bearer.
type SessionAccept struct {
	SessionID uint64
	BearerID  uint32
	QCI       byte
}

func (*SessionAccept) Type() byte { return MsgSessionAccept }
func (m *SessionAccept) appendBody(b []byte) []byte {
	w := codec.AppendTo(b)
	w.Uint64(m.SessionID)
	w.Uint32(m.BearerID)
	w.Byte(m.QCI)
	return w.Out()
}
func (m *SessionAccept) unmarshalBody(b []byte) error {
	r := codec.NewReader(b)
	m.SessionID = r.Uint64()
	m.BearerID = r.Uint32()
	m.QCI = r.Byte()
	return r.Done()
}
