package epc

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/billing"
	"cellbricks/internal/nas"
	"cellbricks/internal/obs"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// SubscriberClient is the AGW's legacy northbound: the two S6A-style round
// trips of the baseline attach.
type SubscriberClient interface {
	AuthInfo(imsi string) (aka.Vector, error)
	UpdateLocation(imsi string) (SubscriberProfile, error)
}

// BrokerClient is the AGW's CellBricks northbound: the single SAP round
// trip to the user's broker.
type BrokerClient interface {
	Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error)
}

// BrokerClientCtx is an optional extension of BrokerClient: clients that
// implement it receive the attach's span context so the broker hop joins
// the causal trace (over the wire, the context rides in the frame header).
type BrokerClientCtx interface {
	AuthenticateCtx(sc obs.SpanContext, req *sap.AuthReqT) (*sap.AuthResp, error)
}

// BrokerReceiptClient is the other optional extension: a client that can
// carry the receipt exchange (sap/pass.go). Behind one that cannot, the
// bTelco's MAC-mode grants simply go unreceipted past the last 256.
type BrokerReceiptClient interface {
	RedeemReceipt(req *sap.ReceiptReq) (*sap.ReceiptResp, error)
}

// BrokerDirectory resolves a broker identifier (from the UE's authReqU) to
// a client and the broker's public identity. In deployment this is DNS +
// WebPKI; here it is injected.
type BrokerDirectory interface {
	Lookup(idB string) (BrokerClient, pki.PublicIdentity, error)
}

// StaticDirectory is the BrokerDirectory of a deployment that knows one
// broker: every attach gets the same long-lived client (over the wire, a
// pooled broker.Client), so none pays a dial. Client's builder closes it.
type StaticDirectory struct {
	ID     string
	Client BrokerClient
	Pub    pki.PublicIdentity
}

// Lookup implements BrokerDirectory.
func (d StaticDirectory) Lookup(idB string) (BrokerClient, pki.PublicIdentity, error) {
	if idB != d.ID {
		return nil, pki.PublicIdentity{}, fmt.Errorf("epc: unknown broker %q", idB)
	}
	return d.Client, d.Pub, nil
}

// InterceptRecord is one user-plane event mirrored to the lawful-intercept
// sink for sessions whose SAP grant carried the LI flag (the paper's
// handover-interface hook: policy decided by the broker, mechanism
// implemented by the bTelco).
type InterceptRecord struct {
	SessionID uint64
	URef      string
	IP        string
	Dir       Direction
	Bytes     int
	At        time.Duration
}

// AGWConfig configures an access gateway.
type AGWConfig struct {
	// Telco enables the SAP flow when set: the AGW fronts this bTelco.
	Telco *sap.TelcoState
	// Subscribers enables the legacy flow when set.
	Subscribers SubscriberClient
	// Brokers resolves broker IDs for SAP requests.
	Brokers BrokerDirectory
	// IPPrefix seeds the address pool (default "10.45").
	IPPrefix string
	// Intercept receives mirrored user-plane events for LI-flagged
	// sessions. Nil disables interception even when a grant requests it.
	Intercept func(InterceptRecord)
	// Tracer, with TraceIDs, enables causal tracing: SAP attaches whose
	// envelope carries a span context get per-step child spans.
	Tracer *obs.Tracer
	// TraceIDs mints span IDs deterministically from the sim seed.
	TraceIDs *obs.SpanIDSource
}

// SessionKind distinguishes the two attach flows.
type SessionKind int

// Session kinds.
const (
	KindLegacy SessionKind = iota + 1
	KindSAP
)

// sessionState is the control-plane FSM state.
type sessionState int

const (
	stateAuthPending sessionState = iota + 1 // legacy: challenge sent
	stateSMCPending                          // legacy: SMC sent
	stateActive
)

// Session is the AGW-side record of one attachment.
type Session struct {
	ID     uint64
	Kind   SessionKind
	RANID  string
	IMSI   string // legacy only
	URef   string // SAP only: the broker's opaque UE reference
	IDB    string // SAP only
	IP     string
	Ctx    *nas.SecurityContext
	Bearer *Bearer

	state       sessionState
	pendingXRES []byte
	pendingVec  aka.Vector
	profile     SubscriberProfile
	grant       *sap.Grant
	brokerPub   pki.PublicIdentity
	started     time.Duration
	reportSeq   uint32
}

// AGW is the access gateway: NAS termination, attach FSMs for both
// architectures, and the user plane.
type AGW struct {
	cfg  AGWConfig
	ipam *IPAllocator
	up   *UserPlane

	mu       sync.Mutex
	sessions map[uint64]*Session
	byRAN    map[string]*Session
	nextSID  uint64

	// Cumulative counters, read by Stats.
	attaches       uint64
	attachFailures uint64
	retiredUL      uint64
	retiredDL      uint64
}

// NewAGW builds an access gateway.
func NewAGW(cfg AGWConfig) *AGW {
	if cfg.IPPrefix == "" {
		cfg.IPPrefix = "10.45"
	}
	return &AGW{
		cfg:      cfg,
		ipam:     NewIPAllocator(cfg.IPPrefix),
		up:       NewUserPlane(),
		sessions: make(map[uint64]*Session),
		byRAN:    make(map[string]*Session),
	}
}

// UserPlane exposes the gateway's user plane.
func (g *AGW) UserPlane() *UserPlane { return g.up }

// Session returns a session by ID.
func (g *AGW) Session(id uint64) *Session {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessions[id]
}

// ActiveSessions counts sessions in the active state.
func (g *AGW) ActiveSessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, s := range g.sessions {
		if s.state == stateActive {
			n++
		}
	}
	return n
}

// Errors from NAS handling.
var (
	ErrNoSession         = errors.New("epc: no session for RAN id")
	ErrBadState          = errors.New("epc: message invalid in current state")
	ErrFlowDisabled      = errors.New("epc: flow not enabled on this AGW")
	ErrProtectedRequired = errors.New("epc: message must be security-protected")
)

// HandleNAS processes one uplink NAS message from the RAN identified by
// ranID and returns the downlink reply. The envelope flag byte
// distinguishes plain from security-protected transport and may carry a
// span context (see nas.SplitEnvelope).
func (g *AGW) HandleNAS(ranID string, envelope []byte) ([]byte, error) {
	mtr.nasMessages.Add(1)
	protected, sc, body, err := nas.SplitEnvelope(envelope)
	if err != nil {
		return nil, nas.ErrTooShort
	}

	g.mu.Lock()
	sess := g.byRAN[ranID]
	g.mu.Unlock()

	if protected {
		if sess == nil || sess.Ctx == nil {
			return nil, ErrNoSession
		}
		if body, err = sess.Ctx.Unprotect(nas.Uplink, body); err != nil {
			return nil, err
		}
	}

	msg, err := nas.Decode(body)
	if err != nil {
		return nil, err
	}

	switch m := msg.(type) {
	case *nas.AttachRequestLegacy:
		return g.handleLegacyAttach(ranID, m)
	case *nas.AuthenticationResponse:
		return g.handleAuthResponse(sess, m)
	case *nas.SecurityModeComplete:
		if !protected {
			return nil, ErrProtectedRequired
		}
		return g.handleSMCComplete(sess)
	case *nas.AttachRequestSAP:
		return g.handleSAPAttach(ranID, m, sc)
	case *nas.SessionRequest:
		if !protected {
			return nil, ErrProtectedRequired
		}
		return g.handleSessionRequest(sess, m)
	case *nas.DetachRequest:
		if !protected {
			return nil, ErrProtectedRequired
		}
		return g.handleDetach(sess, m)
	default:
		return nil, fmt.Errorf("epc: unexpected NAS message %T", msg)
	}
}

// plain wraps an unprotected NAS reply: flag(0) || encoding, built in a
// single allocation. (AGW handlers run concurrently, so there is no
// shared scratch buffer here — each reply owns its storage.)
func plain(m nas.Message) []byte {
	return nas.AppendEncode(make([]byte, 1, 96), m)
}

// reject counts a failed attach and produces the reject envelope.
func (g *AGW) reject(cause string) []byte {
	g.mu.Lock()
	g.attachFailures++
	g.mu.Unlock()
	mtr.attachFailures.Add(1)
	return plain(&nas.AttachReject{Cause: cause})
}

// rejectErr builds the reject for a northbound failure, preserving a
// degraded broker's typed retry-after hint so the UE's attach state
// machine can honour it instead of hammering a recovering broker.
func (g *AGW) rejectErr(err error) []byte {
	var ra *wire.RetryAfterError
	if errors.As(err, &ra) {
		g.mu.Lock()
		g.attachFailures++
		g.mu.Unlock()
		mtr.attachFailures.Add(1)
		ms := ra.After.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		return plain(&nas.AttachReject{Cause: err.Error(), RetryAfterMS: uint32(ms)})
	}
	return g.reject(err.Error())
}

func (g *AGW) protectedReply(s *Session, m nas.Message) []byte {
	ct := s.Ctx.Protect(nas.Downlink, nas.Encode(m))
	out := make([]byte, 1, 1+len(ct))
	out[0] = 1
	return append(out, ct...)
}

// --- legacy (baseline) attach: AIR -> challenge -> SMC -> ULR -> accept ---

func (g *AGW) handleLegacyAttach(ranID string, m *nas.AttachRequestLegacy) ([]byte, error) {
	if g.cfg.Subscribers == nil {
		return nil, ErrFlowDisabled
	}
	vec, err := g.cfg.Subscribers.AuthInfo(m.IMSI)
	if err != nil {
		return g.reject(err.Error()), nil
	}
	g.mu.Lock()
	g.nextSID++
	sess := &Session{
		ID:          g.nextSID,
		Kind:        KindLegacy,
		RANID:       ranID,
		IMSI:        m.IMSI,
		state:       stateAuthPending,
		pendingXRES: vec.XRES,
		pendingVec:  vec,
	}
	g.sessions[sess.ID] = sess
	g.byRAN[ranID] = sess
	g.mu.Unlock()
	return plain(&nas.AuthenticationRequest{RAND: vec.RAND, AUTN: vec.AUTN}), nil
}

func (g *AGW) handleAuthResponse(sess *Session, m *nas.AuthenticationResponse) ([]byte, error) {
	if sess == nil {
		return nil, ErrNoSession
	}
	if sess.state != stateAuthPending {
		return nil, ErrBadState
	}
	if subtle.ConstantTimeCompare(m.RES, sess.pendingXRES) != 1 {
		g.dropSession(sess)
		return g.reject("RES mismatch"), nil
	}
	sess.Ctx = nas.NewSecurityContext(sess.pendingVec.KASME)
	sess.state = stateSMCPending
	return plain(&nas.SecurityModeCommand{CipherAlg: 2, IntegrityAlg: 2}), nil
}

func (g *AGW) handleSMCComplete(sess *Session) ([]byte, error) {
	if sess == nil {
		return nil, ErrNoSession
	}
	if sess.state != stateSMCPending {
		return nil, ErrBadState
	}
	// Second S6A round trip: Update Location Request.
	profile, err := g.cfg.Subscribers.UpdateLocation(sess.IMSI)
	if err != nil {
		g.dropSession(sess)
		return g.reject(err.Error()), nil
	}
	sess.profile = profile
	accept, err := g.activate(sess, profile.QoS, nil)
	if err != nil {
		return nil, err
	}
	return g.protectedReply(sess, accept), nil
}

// --- CellBricks SAP attach: one broker round trip ---

func (g *AGW) handleSAPAttach(ranID string, m *nas.AttachRequestSAP, sc obs.SpanContext) ([]byte, error) {
	if g.cfg.Telco == nil || g.cfg.Brokers == nil {
		return nil, ErrFlowDisabled
	}
	// When the envelope carried a span context and this AGW has a tracer,
	// each SAP step below records a child span under an overall epc/attach
	// span parented to the UE's request. step is a no-op when untraced.
	tr, ids := g.cfg.Tracer, g.cfg.TraceIDs
	traced := sc.Valid() && tr != nil && ids != nil
	var epcCtx obs.SpanContext
	if traced {
		epcCtx = sc.Child(ids.Next())
		epcStart := tr.Now()
		defer func() {
			tr.SpanCtx(epcCtx, "epc", "attach", epcStart, tr.Now()-epcStart,
				map[string]string{"ran": ranID, "broker": m.BrokerID})
		}()
	}
	step := func(cat, name string, f func() error) error {
		if !traced {
			return f()
		}
		start := tr.Now()
		err := f()
		args := map[string]string(nil)
		if err != nil {
			args = map[string]string{"error": err.Error()}
		}
		tr.SpanCtx(epcCtx.Child(ids.Next()), cat, name, start, tr.Now()-start, args)
		return err
	}
	reqU, err := sap.UnmarshalAuthReqU(m.AuthReqU)
	if err != nil {
		return nil, err
	}
	client, brokerPub, err := g.cfg.Brokers.Lookup(m.BrokerID)
	if err != nil {
		return g.reject("unknown broker: " + m.BrokerID), nil
	}
	var grant *sap.Grant
	var respU *sap.AuthRespU
	// A broker that refuses the bTelco's pass MAC (it re-keyed, or the
	// certificate was renewed) does so before its replay filter sees the
	// nonce, and the refusal drops the pass: the same reqU goes out once
	// more, signed, and the UE never hears of it.
	for try := 0; ; try++ {
		var reqT *sap.AuthReqT
		if err := step("sap", "forward-request", func() (e error) {
			reqT, e = g.cfg.Telco.ForwardRequest(reqU)
			return e
		}); err != nil {
			return nil, err
		}
		var resp *sap.AuthResp
		if err := step("broker", "authenticate", func() (e error) {
			if cc, ok := client.(BrokerClientCtx); ok && traced {
				resp, e = cc.AuthenticateCtx(epcCtx, reqT)
			} else {
				resp, e = client.Authenticate(reqT)
			}
			return e
		}); err != nil {
			return g.rejectErr(err), nil
		}
		err := step("sap", "handle-response", func() (e error) {
			grant, respU, e = g.cfg.Telco.HandleResponse(brokerPub, resp)
			return e
		})
		if err == nil {
			break
		}
		if try > 0 || !errors.Is(err, sap.ErrStalePass) {
			return g.reject(err.Error()), nil
		}
	}
	if rc, ok := client.(BrokerReceiptClient); ok && g.cfg.Telco.ReceiptDue(m.BrokerID) {
		_ = step("broker", "redeem-receipt", func() error { return g.redeem(rc, m.BrokerID, brokerPub) })
	}

	g.mu.Lock()
	g.nextSID++
	sess := &Session{
		ID:        g.nextSID,
		Kind:      KindSAP,
		RANID:     ranID,
		URef:      grant.URef,
		IDB:       m.BrokerID,
		grant:     grant,
		brokerPub: brokerPub,
	}
	g.sessions[sess.ID] = sess
	g.byRAN[ranID] = sess
	g.mu.Unlock()

	// ss seeds the NAS security context exactly as KASME would (SMC key
	// derivation); the SMC exchange itself is folded into attach accept in
	// SAP since both sides already hold ss.
	var accept *nas.AttachAccept
	if err := step("epc", "activate", func() (e error) {
		sess.Ctx = nas.NewSecurityContext(grant.SS)
		accept, e = g.activate(sess, grant.Params, respU)
		return e
	}); err != nil {
		return nil, err
	}
	// The accept itself carries authRespU; it cannot be protected before
	// the UE has validated the response and installed ss, so it rides
	// plain — its payload is broker-signed and sealed to the UE.
	return plain(accept), nil
}

// redeem turns the bTelco's unreceipted grants of one broker into a signed
// receipt: one more round trip, once per 256 attaches. A failure costs the
// attach nothing — the grants stay in the ring and the next attach asks
// again; after a refused MAC the second request is signed.
func (g *AGW) redeem(rc BrokerReceiptClient, idB string, brokerPub pki.PublicIdentity) (err error) {
	for try := 0; try < 2; try++ {
		req := g.cfg.Telco.ReceiptRequest(idB)
		if req == nil {
			return nil
		}
		var resp *sap.ReceiptResp
		if resp, err = rc.RedeemReceipt(req); err == nil {
			err = g.cfg.Telco.AcceptReceipt(brokerPub, req, resp)
		}
		if !errors.Is(err, sap.ErrStalePass) {
			break
		}
	}
	if err != nil {
		mtr.receiptFailures.Add(1)
		return err
	}
	mtr.receipts.Add(1)
	return nil
}

// activate allocates the IP and bearer and builds the AttachAccept.
func (g *AGW) activate(sess *Session, params qos.Params, respU *sap.AuthRespU) (*nas.AttachAccept, error) {
	ip, err := g.ipam.Allocate()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.attaches++
	g.mu.Unlock()
	mtr.attaches.Add(1)
	mtr.activeSessions.Add(1)
	sess.IP = ip
	sess.Bearer = g.up.CreateBearer(sess.ID, ip, params)
	sess.state = stateActive
	if sess.Kind == KindSAP && sess.grant != nil && sess.grant.LI && g.cfg.Intercept != nil {
		sink := g.cfg.Intercept
		id, uref, uip := sess.ID, sess.URef, ip
		sess.Bearer.Tap = func(now time.Duration, dir Direction, size int) {
			sink(InterceptRecord{SessionID: id, URef: uref, IP: uip, Dir: dir, Bytes: size, At: now})
		}
	}
	accept := &nas.AttachAccept{
		SessionID: sess.ID,
		IP:        ip,
		BearerID:  sess.Bearer.BearerID,
		QCI:       byte(params.QCI),
		DLAmbrBps: params.DLAmbrBps,
		ULAmbrBps: params.ULAmbrBps,
	}
	if respU != nil {
		accept.AuthRespU = respU.Marshal()
	}
	return accept, nil
}

// handleSessionRequest provisions a dedicated bearer for an additional
// traffic class, within the QoS bounds of the attachment (the SAP grant
// for CellBricks sessions, the subscription profile for legacy ones).
func (g *AGW) handleSessionRequest(sess *Session, m *nas.SessionRequest) ([]byte, error) {
	if sess == nil {
		return nil, ErrNoSession
	}
	if sess.state != stateActive || sess.ID != m.SessionID {
		return nil, ErrBadState
	}
	want := qos.Params{QCI: qos.QCI(m.QCI), DLAmbrBps: sess.Bearer.Params.DLAmbrBps, ULAmbrBps: sess.Bearer.Params.ULAmbrBps}
	if sess.Kind == KindSAP {
		// The bTelco may only provision classes it advertised — and, for
		// GBR classes, only with broker-granted authority: here the
		// original grant's capability check stands in for a re-negotiation.
		if err := want.Validate(g.cfg.Telco.Terms.Cap); err != nil {
			return g.protectedReply(sess, &nas.AttachReject{Cause: err.Error()}), nil
		}
	} else if _, ok := qos.Lookup(want.QCI); !ok {
		return g.protectedReply(sess, &nas.AttachReject{Cause: "unknown QCI"}), nil
	}
	b, ok := g.up.CreateDedicatedBearer(sess.IP, want)
	if !ok {
		return nil, ErrBadState
	}
	return g.protectedReply(sess, &nas.SessionAccept{SessionID: sess.ID, BearerID: b.BearerID, QCI: m.QCI}), nil
}

func (g *AGW) handleDetach(sess *Session, m *nas.DetachRequest) ([]byte, error) {
	if sess == nil {
		return nil, ErrNoSession
	}
	if sess.ID != m.SessionID {
		return nil, fmt.Errorf("epc: detach for session %d on session %d", m.SessionID, sess.ID)
	}
	reply := g.protectedReply(sess, &nas.DetachAccept{SessionID: sess.ID})
	g.dropSession(sess)
	return reply, nil
}

func (g *AGW) dropSession(sess *Session) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if sess.state == stateActive {
		mtr.activeSessions.Add(-1)
	}
	if sess.IP != "" {
		if u, ok := g.up.TotalUsage(sess.IP); ok {
			g.retiredUL += u.ULBytes
			g.retiredDL += u.DLBytes
		}
		g.up.DeleteBearer(sess.IP)
		g.ipam.Release(sess.IP)
	}
	delete(g.sessions, sess.ID)
	if g.byRAN[sess.RANID] == sess {
		delete(g.byRAN, sess.RANID)
	}
}

// RebindRAN migrates an active session to a new RAN-level identifier —
// the X2-style network-driven handover of the *baseline* architecture:
// the UE moved to another eNodeB of the same operator, the core keeps the
// session, bearers, IP address and security context, and only the radio
// binding changes. CellBricks deliberately does not use this path
// (handover = detach + SAP re-attach), but the baseline needs it.
func (g *AGW) RebindRAN(sessionID uint64, newRanID string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	sess, ok := g.sessions[sessionID]
	if !ok || sess.state != stateActive {
		return ErrBadState
	}
	if cur, busy := g.byRAN[newRanID]; busy && cur != sess {
		return fmt.Errorf("epc: RAN id %q already bound to session %d", newRanID, cur.ID)
	}
	if g.byRAN[sess.RANID] == sess {
		delete(g.byRAN, sess.RANID)
	}
	sess.RANID = newRanID
	g.byRAN[newRanID] = sess
	return nil
}

// AGWStats is a snapshot of the gateway's cumulative counters.
type AGWStats struct {
	ActiveSessions int
	Attaches       uint64
	AttachFailures uint64
	ULBytes        uint64
	DLBytes        uint64
}

// Stats snapshots the gateway's counters: live bearer usage plus retired
// sessions.
func (g *AGW) Stats() AGWStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := AGWStats{
		Attaches:       g.attaches,
		AttachFailures: g.attachFailures,
		ULBytes:        g.retiredUL,
		DLBytes:        g.retiredDL,
	}
	for _, sess := range g.sessions {
		if sess.state != stateActive {
			continue
		}
		st.ActiveSessions++
		if u, ok := g.up.TotalUsage(sess.IP); ok {
			st.ULBytes += u.ULBytes
			st.DLBytes += u.DLBytes
		}
	}
	return st
}

// GenerateReport builds the bTelco-side traffic report for a SAP session
// from the user-plane counters, sealed to the session's broker on the
// bTelco's resident exchange with it and authenticated the way
// sap.TelcoState.SealReport decides: MAC'd under the broker's pass, or
// signed with the bTelco key. rel is the relative timestamp within the
// session. Concurrent callers for one session get distinct, gap-free
// sequence numbers.
func (g *AGW) GenerateReport(sessionID uint64, rel time.Duration, m billing.QoSMetrics) (*billing.SealedReport, error) {
	r, brokerPub, err := g.measure(sessionID, rel, m)
	if err != nil {
		return nil, err
	}
	return g.cfg.Telco.SealReport(brokerPub, &r)
}

// UploadReport is GenerateReport with the way to the broker handed in, for
// a caller that can hear the broker's answer: a MAC'd report refused with
// billing.ErrMustSign goes out again signed (sap.TelcoState.UploadReport).
func (g *AGW) UploadReport(sessionID uint64, rel time.Duration, m billing.QoSMetrics, up func(*billing.SealedReport) error) error {
	r, brokerPub, err := g.measure(sessionID, rel, m)
	if err != nil {
		return err
	}
	return g.cfg.Telco.UploadReport(brokerPub, &r, up)
}

// measure takes a session's next report off the user-plane counters, with
// the broker it is for.
func (g *AGW) measure(sessionID uint64, rel time.Duration, m billing.QoSMetrics) (billing.Report, pki.PublicIdentity, error) {
	g.mu.Lock()
	sess := g.sessions[sessionID]
	if sess == nil || sess.Kind != KindSAP {
		g.mu.Unlock()
		return billing.Report{}, pki.PublicIdentity{}, ErrNoSession
	}
	sess.reportSeq++
	seq := sess.reportSeq
	g.mu.Unlock()
	u, _ := g.up.TotalUsage(sess.IP)
	return billing.Report{
		SessionRef: sess.URef,
		Reporter:   billing.ReporterTelco,
		Seq:        seq,
		Rel:        rel,
		ULBytes:    u.ULBytes,
		DLBytes:    u.DLBytes,
		QoS:        m,
	}, sess.brokerPub, nil
}
