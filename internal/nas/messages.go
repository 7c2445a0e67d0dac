package nas

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	if err := m.unmarshalBody(b[1:]); err != nil {
		return nil, err
	}
	return m, nil
}

// --- field codec helpers ---

type writer struct{ b []byte }

func (w *writer) bytes(v []byte) {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *writer) str(v string) { w.bytes([]byte(v)) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) byte1(v byte) { w.b = append(w.b, v) }

type reader struct {
	b   []byte
	err error
}

func (r *reader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < 4 {
		r.err = ErrTooShort
		return nil
	}
	n := binary.BigEndian.Uint32(r.b)
	if uint64(len(r.b)-4) < uint64(n) {
		r.err = ErrTooShort
		return nil
	}
	v := r.b[4 : 4+n]
	r.b = r.b[4+n:]
	return v
}
func (r *reader) str() string { return string(r.bytes()) }
func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = ErrTooShort
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}
func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = ErrTooShort
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}
func (r *reader) byte1() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = ErrTooShort
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("nas: %d trailing bytes", len(r.b))
	}
	return nil
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
	w := writer{b: b}
	w.str(m.IMSI)
	w.u32(m.Capabilities)
	return w.b
}
func (m *AttachRequestLegacy) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.IMSI = r.str()
	m.Capabilities = r.u32()
	return r.done()
}

// AuthenticationRequest carries the AKA challenge (RAND, AUTN).
type AuthenticationRequest struct {
	RAND [16]byte
	AUTN []byte
}

func (*AuthenticationRequest) Type() byte { return MsgAuthenticationRequest }
func (m *AuthenticationRequest) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.bytes(m.RAND[:])
	w.bytes(m.AUTN)
	return w.b
}
func (m *AuthenticationRequest) unmarshalBody(b []byte) error {
	r := reader{b: b}
	rnd := r.bytes()
	m.AUTN = append([]byte(nil), r.bytes()...)
	if err := r.done(); err != nil {
		return err
	}
	if len(rnd) != 16 {
		return fmt.Errorf("nas: RAND length %d", len(rnd))
	}
	copy(m.RAND[:], rnd)
	return nil
}

// AuthenticationResponse carries RES.
type AuthenticationResponse struct{ RES []byte }

func (*AuthenticationResponse) Type() byte { return MsgAuthenticationResponse }
func (m *AuthenticationResponse) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.bytes(m.RES)
	return w.b
}
func (m *AuthenticationResponse) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.RES = append([]byte(nil), r.bytes()...)
	return r.done()
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
	w := writer{b: b}
	w.byte1(m.CipherAlg)
	w.byte1(m.IntegrityAlg)
	w.u32(m.ReplayedCaps)
	return w.b
}
func (m *SecurityModeCommand) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.CipherAlg = r.byte1()
	m.IntegrityAlg = r.byte1()
	m.ReplayedCaps = r.u32()
	return r.done()
}

// SecurityModeComplete acknowledges SMC under the new context.
type SecurityModeComplete struct{}

func (*SecurityModeComplete) Type() byte                 { return MsgSecurityModeComplete }
func (*SecurityModeComplete) appendBody(b []byte) []byte { return b }
func (*SecurityModeComplete) unmarshalBody(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("nas: %d trailing bytes", len(b))
	}
	return nil
}

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
	w := writer{b: b}
	w.str(m.BrokerID)
	w.bytes(m.AuthReqU)
	return w.b
}
func (m *AttachRequestSAP) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.BrokerID = r.str()
	m.AuthReqU = append([]byte(nil), r.bytes()...)
	return r.done()
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
	w := writer{b: b}
	w.u64(m.SessionID)
	w.str(m.IP)
	w.u32(m.BearerID)
	w.byte1(m.QCI)
	w.u64(m.DLAmbrBps)
	w.u64(m.ULAmbrBps)
	w.bytes(m.AuthRespU)
	return w.b
}
func (m *AttachAccept) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.SessionID = r.u64()
	m.IP = r.str()
	m.BearerID = r.u32()
	m.QCI = r.byte1()
	m.DLAmbrBps = r.u64()
	m.ULAmbrBps = r.u64()
	m.AuthRespU = append([]byte(nil), r.bytes()...)
	return r.done()
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
	w := writer{b: b}
	w.str(m.Cause)
	w.u32(m.RetryAfterMS)
	return w.b
}
func (m *AttachReject) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.Cause = r.str()
	m.RetryAfterMS = r.u32()
	return r.done()
}

// DetachRequest tears down the attachment (host-driven in CellBricks).
type DetachRequest struct{ SessionID uint64 }

func (*DetachRequest) Type() byte { return MsgDetachRequest }
func (m *DetachRequest) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.u64(m.SessionID)
	return w.b
}
func (m *DetachRequest) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.SessionID = r.u64()
	return r.done()
}

// DetachAccept acknowledges a detach.
type DetachAccept struct{ SessionID uint64 }

func (*DetachAccept) Type() byte { return MsgDetachAccept }
func (m *DetachAccept) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.u64(m.SessionID)
	return w.b
}
func (m *DetachAccept) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.SessionID = r.u64()
	return r.done()
}

// SessionRequest asks for an additional PDN session/bearer.
type SessionRequest struct {
	SessionID uint64
	APN       string
	QCI       byte
}

func (*SessionRequest) Type() byte { return MsgSessionRequest }
func (m *SessionRequest) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.u64(m.SessionID)
	w.str(m.APN)
	w.byte1(m.QCI)
	return w.b
}
func (m *SessionRequest) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.SessionID = r.u64()
	m.APN = r.str()
	m.QCI = r.byte1()
	return r.done()
}

// SessionAccept grants the additional bearer.
type SessionAccept struct {
	SessionID uint64
	BearerID  uint32
	QCI       byte
}

func (*SessionAccept) Type() byte { return MsgSessionAccept }
func (m *SessionAccept) appendBody(b []byte) []byte {
	w := writer{b: b}
	w.u64(m.SessionID)
	w.u32(m.BearerID)
	w.byte1(m.QCI)
	return w.b
}
func (m *SessionAccept) unmarshalBody(b []byte) error {
	r := reader{b: b}
	m.SessionID = r.u64()
	m.BearerID = r.u32()
	m.QCI = r.byte1()
	return r.done()
}
