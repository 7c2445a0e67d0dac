// Package ue implements the user-equipment host stack (the srsUE
// equivalent): the SIM state for both architectures (legacy AKA shared
// secret, and the CellBricks key pair + broker public key), the attach /
// detach drivers over a NAS transport, and the tamper-resistant baseband
// traffic meter that produces the UE side of the verifiable billing
// reports (§4.3).
package ue

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/billing"
	"cellbricks/internal/nas"
	"cellbricks/internal/obs"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// NASTransport carries one NAS envelope uplink and returns the downlink
// reply — the radio + S1 path, real socket or simulated.
type NASTransport func(envelope []byte) ([]byte, error)

// Errors from attach processing.
var (
	ErrRejected    = errors.New("ue: attach rejected")
	ErrUnexpected  = errors.New("ue: unexpected NAS message")
	ErrNotAttached = errors.New("ue: not attached")
)

// Attachment is the result of a successful attach.
type Attachment struct {
	SessionID uint64
	IP        string
	BearerID  uint32
	QCI       byte
	DLAmbrBps uint64
	ULAmbrBps uint64
}

// Device is one UE.
type Device struct {
	RANID string

	// Legacy SIM state (nil when the device is CellBricks-only).
	Legacy *aka.SIM
	// CellBricks SIM state (nil when legacy-only). Both set = the
	// dual-stack incremental-deployment mode of §3.1.
	CB *sap.UEState

	// Meter is the baseband measurement function.
	Meter *BasebandMeter

	mu     sync.Mutex
	ctx    *nas.SecurityContext
	attach *Attachment
	enc    []byte      // NAS encode scratch (guarded by mu; Protect copies out)
	shelf  AttachShelf // shed SAP requests awaiting retransmission (guarded by mu)

	// Causal tracing (armed by TraceAttach; zero-valued = untraced, with
	// byte-identical envelopes to the pre-tracing format).
	tr       *obs.Tracer
	ids      *obs.SpanIDSource
	traceCtx obs.SpanContext // parent context for the next attach
}

// TraceAttach arms causal tracing for subsequent SAP attaches: the device
// records a "ue" span for each attach, parented under parent, and embeds
// its context in the uplink NAS envelope so the serving AGW (and everything
// behind it) can join the same trace. Passing a nil ids or an invalid
// parent disarms tracing.
func (d *Device) TraceAttach(tr *obs.Tracer, ids *obs.SpanIDSource, parent obs.SpanContext) {
	d.mu.Lock()
	d.tr, d.ids, d.traceCtx = tr, ids, parent
	d.mu.Unlock()
}

// attachSpanCtx mints the span context for one attach exchange (zero when
// tracing is disarmed).
func (d *Device) attachSpanCtx() obs.SpanContext {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ids == nil || !d.traceCtx.Valid() {
		return obs.SpanContext{}
	}
	return d.traceCtx.Child(d.ids.Next())
}

// NewDevice builds a device. key is the broker-issued UE key (also the
// baseband report-signing key); brokerPub is embedded in the SIM.
func NewDevice(ranID string, legacy *aka.SIM, cb *sap.UEState) *Device {
	d := &Device{RANID: ranID, Legacy: legacy, CB: cb}
	if cb != nil {
		d.Meter = NewBasebandMeter(cb.Key)
	}
	return d
}

// Attached returns the live attachment, or nil.
func (d *Device) Attached() *Attachment {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.attach
}

// Context returns the NAS security context (nil before attach).
func (d *Device) Context() *nas.SecurityContext {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctx
}

// plainEnvelope wraps an unprotected NAS message: flag(0) || encoding,
// built in a single allocation.
func plainEnvelope(m nas.Message) []byte {
	return nas.AppendEncode(make([]byte, 1, 96), m)
}

// plainEnvelopeCtx is plainEnvelope with a span context in the header; a
// zero context produces the legacy single-flag-byte envelope.
func plainEnvelopeCtx(m nas.Message, sc obs.SpanContext) []byte {
	if !sc.Valid() {
		return plainEnvelope(m)
	}
	hdr := nas.AppendEnvelopeHeader(make([]byte, 0, 1+obs.SpanContextLen+96), false, sc)
	return nas.AppendEncode(hdr, m)
}

func (d *Device) protectedEnvelope(m nas.Message) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ctx == nil {
		return nil, ErrNotAttached
	}
	d.enc = nas.AppendEncode(d.enc[:0], m)
	ct := d.ctx.Protect(nas.Uplink, d.enc)
	out := make([]byte, 1, 1+len(ct))
	out[0] = 1
	return append(out, ct...), nil
}

// decodeReply unwraps a downlink envelope, unprotecting when flagged.
func (d *Device) decodeReply(envelope []byte) (nas.Message, error) {
	if len(envelope) == 0 {
		return nil, nas.ErrTooShort
	}
	body := envelope[1:]
	if envelope[0] == 1 {
		d.mu.Lock()
		ctx := d.ctx
		d.mu.Unlock()
		if ctx == nil {
			return nil, ErrNotAttached
		}
		pt, err := ctx.Unprotect(nas.Downlink, body)
		if err != nil {
			return nil, err
		}
		body = pt
	}
	return nas.Decode(body)
}

// AttachLegacy runs the baseline EPS attach: identify by IMSI, answer the
// AKA challenge, complete SMC under the derived context, receive accept.
func (d *Device) AttachLegacy(tx NASTransport) (*Attachment, error) {
	if d.Legacy == nil {
		return nil, errors.New("ue: no legacy SIM")
	}
	reply, err := tx(plainEnvelope(&nas.AttachRequestLegacy{IMSI: d.Legacy.IMSI, Capabilities: 7}))
	if err != nil {
		return nil, err
	}
	msg, err := d.decodeReply(reply)
	if err != nil {
		return nil, err
	}
	challenge, ok := msg.(*nas.AuthenticationRequest)
	if !ok {
		return nil, rejectOr(msg)
	}
	res, kasme, err := d.Legacy.Answer(challenge.RAND, challenge.AUTN)
	if err != nil {
		return nil, fmt.Errorf("ue: network authentication: %w", err)
	}
	reply, err = tx(plainEnvelope(&nas.AuthenticationResponse{RES: res}))
	if err != nil {
		return nil, err
	}
	msg, err = d.decodeReply(reply)
	if err != nil {
		return nil, err
	}
	if _, ok := msg.(*nas.SecurityModeCommand); !ok {
		return nil, rejectOr(msg)
	}
	d.mu.Lock()
	d.ctx = nas.NewSecurityContext(kasme)
	d.mu.Unlock()
	env, err := d.protectedEnvelope(&nas.SecurityModeComplete{})
	if err != nil {
		return nil, err
	}
	reply, err = tx(env)
	if err != nil {
		return nil, err
	}
	msg, err = d.decodeReply(reply)
	if err != nil {
		return nil, err
	}
	accept, ok := msg.(*nas.AttachAccept)
	if !ok {
		return nil, rejectOr(msg)
	}
	return d.install(accept), nil
}

// AttachSAP runs the CellBricks attach against bTelco idT: one exchange
// with the network, whose reply carries the broker-sealed authRespU. The
// shared secret ss then seeds the NAS context (the SMC exchange is
// subsumed because both sides already hold ss). A request the broker shed
// stays on the device's AttachShelf for the next attach to idT to resend —
// unless it rode a ticket and an attach to another bTelco comes first: that
// one abandons it and rides its ticket (AttachShelf.Take).
func (d *Device) AttachSAP(tx NASTransport, idT string) (_ *Attachment, err error) {
	if d.CB == nil {
		return nil, errors.New("ue: no CellBricks SIM state")
	}
	d.mu.Lock()
	pending, _, err := d.shelf.Take(d.CB, idT)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer func() {
		d.mu.Lock()
		d.shelf.Settle(pending, err)
		d.mu.Unlock()
	}()
	sc := d.attachSpanCtx()
	start := d.tr.Now()
	defer func() {
		if sc.Valid() {
			d.tr.SpanCtx(sc, "ue", "attach-sap", start, d.tr.Now()-start,
				map[string]string{"telco": idT})
		}
	}()
	reply, err := tx(plainEnvelopeCtx(&nas.AttachRequestSAP{BrokerID: d.CB.IDB, AuthReqU: pending.Req.Marshal()}, sc))
	if err != nil {
		return nil, err
	}
	msg, err := d.decodeReply(reply)
	if err != nil {
		return nil, err
	}
	accept, ok := msg.(*nas.AttachAccept)
	if !ok {
		return nil, rejectOr(msg)
	}
	respU, err := sap.UnmarshalAuthRespU(accept.AuthRespU)
	if err != nil {
		return nil, err
	}
	ss, uref, err := d.CB.HandleResponse(pending, respU)
	if err != nil {
		return nil, fmt.Errorf("ue: broker authentication: %w", err)
	}
	d.mu.Lock()
	d.ctx = nas.NewSecurityContext(ss)
	d.mu.Unlock()
	a := d.install(accept)
	if d.Meter != nil {
		bindStart := d.tr.Now()
		d.Meter.BindSession(uref, pending.Sealer)
		// No uref in the args: broker references come from crypto/rand, and
		// trace output must be byte-identical across runs of one seed.
		if sc.Valid() {
			d.tr.SpanCtx(sc.Child(d.ids.Next()), "billing", "bind-session",
				bindStart, d.tr.Now()-bindStart, nil)
		}
	}
	return a, nil
}

func (d *Device) install(accept *nas.AttachAccept) *Attachment {
	a := &Attachment{
		SessionID: accept.SessionID,
		IP:        accept.IP,
		BearerID:  accept.BearerID,
		QCI:       accept.QCI,
		DLAmbrBps: accept.DLAmbrBps,
		ULAmbrBps: accept.ULAmbrBps,
	}
	d.mu.Lock()
	d.attach = a
	d.mu.Unlock()
	if d.Meter != nil {
		d.Meter.StartSession()
	}
	return a
}

// AttachAuto is the dual-stack incremental-deployment mode of §3.1: the
// device prefers the CellBricks SAP attach and falls back to the legacy
// EPS-AKA flow when the network (or the broker path) cannot serve it —
// "UEs run both legacy and SAP authentication protocols in a dual-stack
// mode."
func (d *Device) AttachAuto(tx NASTransport, idT string) (*Attachment, error) {
	if d.CB != nil {
		a, err := d.AttachSAP(tx, idT)
		if err == nil {
			return a, nil
		}
		if d.Legacy == nil {
			return nil, err
		}
	}
	return d.AttachLegacy(tx)
}

// RequestDedicatedBearer asks the network for an additional bearer of the
// given QoS class on the current session (e.g. a voice bearer beside the
// default), over the protected NAS channel.
func (d *Device) RequestDedicatedBearer(tx NASTransport, qci byte) (uint32, error) {
	d.mu.Lock()
	a := d.attach
	d.mu.Unlock()
	if a == nil {
		return 0, ErrNotAttached
	}
	env, err := d.protectedEnvelope(&nas.SessionRequest{SessionID: a.SessionID, APN: "internet", QCI: qci})
	if err != nil {
		return 0, err
	}
	reply, err := tx(env)
	if err != nil {
		return 0, err
	}
	msg, err := d.decodeReply(reply)
	if err != nil {
		return 0, err
	}
	accept, ok := msg.(*nas.SessionAccept)
	if !ok {
		return 0, rejectOr(msg)
	}
	return accept.BearerID, nil
}

// Detach tears the attachment down (host-driven: "a user simply detaches
// from one cell tower and independently attaches to a new tower").
func (d *Device) Detach(tx NASTransport) error {
	d.mu.Lock()
	a := d.attach
	d.mu.Unlock()
	if a == nil {
		return ErrNotAttached
	}
	env, err := d.protectedEnvelope(&nas.DetachRequest{SessionID: a.SessionID})
	if err != nil {
		return err
	}
	reply, err := tx(env)
	if err != nil {
		return err
	}
	msg, err := d.decodeReply(reply)
	if err != nil {
		return err
	}
	if _, ok := msg.(*nas.DetachAccept); !ok {
		return rejectOr(msg)
	}
	d.mu.Lock()
	d.ctx = nil
	d.attach = nil
	d.mu.Unlock()
	return nil
}

func rejectOr(msg nas.Message) error {
	if rej, ok := msg.(*nas.AttachReject); ok {
		if rej.RetryAfterMS > 0 {
			// A degraded broker's load-shedding hint rode the reject; keep
			// it typed so the attach state machine can honour the backoff.
			return fmt.Errorf("%w: %s: %w", ErrRejected, rej.Cause,
				&wire.RetryAfterError{After: time.Duration(rej.RetryAfterMS) * time.Millisecond})
		}
		return fmt.Errorf("%w: %s", ErrRejected, rej.Cause)
	}
	return fmt.Errorf("%w: %T", ErrUnexpected, msg)
}

// BasebandMeter is the tamper-resistant measurement function the paper
// embeds in baseband firmware: it counts the session's traffic (PDCP-like
// byte counters), tracks QoS observations (RLC-like loss, delay), and
// emits reports sealed and authenticated *inside* the trust boundary — the
// OS side only ever sees the sealed envelope. Authenticated means signed
// with the device key for a session attached on the signed handshake, and
// MAC'd under the session's ticket with one signed checkpoint per 256
// reports after that (DESIGN.md §2.10).
type BasebandMeter struct {
	key *pki.KeyPair
	// stream spans sessions: the device's one report stream to its broker.
	stream billing.Stream

	mu         sync.Mutex
	sessionRef string
	sealer     *pki.Sealer // the session's attach exchange with the broker
	seq        uint32
	ulBytes    uint64
	dlBytes    uint64
	dlRecv     uint64
	dlLost     uint64
	delaySumMs float64
	delayN     int
	callSecs   float64
	smsCount   uint32
}

// NewBasebandMeter builds a meter bound to the device key.
func NewBasebandMeter(key *pki.KeyPair) *BasebandMeter {
	return &BasebandMeter{key: key}
}

// StartSession resets counters for a new attachment. The session
// reference is learned later (BindSession) because SAP keeps the UE
// anonymous to the bTelco; the broker's authRespU could carry it, but the
// paper's reports are keyed by session identifier agreed out of band — we
// bind via the broker's grant record in the harness.
func (m *BasebandMeter) StartSession() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionRef, m.sealer = "", nil
	m.seq = 0
	m.ulBytes, m.dlBytes, m.dlRecv, m.dlLost = 0, 0, 0, 0
	m.delaySumMs, m.delayN = 0, 0
	m.callSecs, m.smsCount = 0, 0
}

// BindSession sets the session reference used in reports and the exchange
// they are sealed on: the one the session's attach opened with the broker
// (sap.PendingAttach.Sealer). It is dropped at the next StartSession, so
// reports of two sessions never share a prefix.
func (m *BasebandMeter) BindSession(ref string, sealer *pki.Sealer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionRef, m.sealer = ref, sealer
}

// CountUL records transmitted bytes.
func (m *BasebandMeter) CountUL(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ulBytes += uint64(n)
}

// CountDL records one received packet of n bytes.
func (m *BasebandMeter) CountDL(n int) { m.CountDLBatch(uint64(n), 1) }

// CountDLBatch records packets received packets that carried bytes in
// all: CountDL for a baseband that reads its radio counters once per
// report instead of once per packet.
func (m *BasebandMeter) CountDLBatch(bytes, packets uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dlBytes += bytes
	m.dlRecv += packets
}

// CountDLLoss records radio-layer losses observed by the baseband (RLC
// sequence gaps).
func (m *BasebandMeter) CountDLLoss(packets int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dlLost += uint64(packets)
}

// AddCallSeconds records voice-call airtime (the "duration for phone
// call" field of the paper's traffic report).
func (m *BasebandMeter) AddCallSeconds(s float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.callSecs += s
}

// CountSMS records sent/received SMS events.
func (m *BasebandMeter) CountSMS(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.smsCount += uint32(n)
}

// ObserveDelay records a delay sample in milliseconds.
func (m *BasebandMeter) ObserveDelay(ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delaySumMs += ms
	m.delayN++
}

// Snapshot returns current usage (ul, dl bytes).
func (m *BasebandMeter) Snapshot() (ul, dl uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ulBytes, m.dlBytes
}

// Report emits the next sealed traffic report at relative time rel. It is
// sealed to the broker and authenticated — by the device key's signature,
// or by a MAC under the ticket the session's attach rode — before leaving
// the "baseband", so neither the OS nor the bTelco can alter it.
func (m *BasebandMeter) Report(rel time.Duration) (*billing.SealedReport, error) {
	return m.report(rel, nil)
}

// UploadReport is Report with the OS's way to the broker handed in: what a
// caller that can hear the broker's answer uses, because a MAC'd report the
// broker refuses with billing.ErrMustSign goes out again signed — the same
// report, sealed twice inside the baseband (billing.Stream.Upload).
func (m *BasebandMeter) UploadReport(rel time.Duration, up func(*billing.SealedReport) error) error {
	_, err := m.report(rel, up)
	return err
}

// report seals the next report and returns it, or with a way to the broker
// uploads it instead.
func (m *BasebandMeter) report(rel time.Duration, up func(*billing.SealedReport) error) (*billing.SealedReport, error) {
	r, sealer, err := m.measure(rel)
	if err != nil {
		return nil, err
	}
	// MAC'd only if the session's attach rode a ticket.
	var mac *pki.Ticket
	if t, ticketed := sealer.MACKey(); ticketed {
		mac = &t
	}
	if up == nil {
		return m.stream.Seal(&r, m.key, sealer, mac)
	}
	return nil, m.stream.Upload(&r, m.key, sealer, mac, up)
}

// measure takes the next report off the counters, with the exchange it is
// to be sealed on.
func (m *BasebandMeter) measure(rel time.Duration) (billing.Report, *pki.Sealer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealer == nil {
		return billing.Report{}, nil, errors.New("ue: baseband meter has no bound session")
	}
	m.seq++
	lossRate := 0.0
	if m.dlRecv+m.dlLost > 0 {
		lossRate = float64(m.dlLost) / float64(m.dlRecv+m.dlLost)
	}
	delay := 0.0
	if m.delayN > 0 {
		delay = m.delaySumMs / float64(m.delayN)
	}
	return billing.Report{
		SessionRef: m.sessionRef,
		Reporter:   billing.ReporterUE,
		Seq:        m.seq,
		Rel:        rel,
		ULBytes:    m.ulBytes,
		DLBytes:    m.dlBytes,
		CallSecs:   m.callSecs,
		SMSCount:   m.smsCount,
		QoS: billing.QoSMetrics{
			DLLossRate: lossRate,
			DLDelayMs:  delay,
		},
	}, m.sealer, nil
}
