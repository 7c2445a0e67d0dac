package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/epc"
	"cellbricks/internal/nas"
	"cellbricks/internal/netem"
	"cellbricks/internal/obs"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/testbed"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

// The price list: what one call into each layer's public functions costs
// in isolation, on the messages an attach and a billing cycle actually
// carry. It is the same on every workload — a layer's cost on a workload
// is this price times the quantity that workload's counts give. Figures
// are medians over batches of back-to-back calls, in raw microseconds;
// printTable shows them in refops too.

// calls sizes the price list: at least 2000 timed calls per figure.
type calls struct {
	batches, minPer int // batches of at least minPer back-to-back calls
	sessions        int // iterations of the whole-session loops
	legacy          int // legacy attach+detach pairs
}

func callSizes(tiny bool) calls {
	if tiny {
		return calls{batches: 3, minPer: 2, sessions: 3, legacy: 3}
	}
	return calls{batches: 250, minPer: 8, sessions: 1000, legacy: 500}
}

// timeCalls returns the median time per call of fn in µs. Calls are timed
// in batches long enough (~50 µs) that reading the clock does not show.
func (c calls) timeCalls(fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm, and fail before timing
		return 0, err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	per := c.minPer
	if one := time.Since(t0); one < 50*time.Microsecond {
		per = max(per, min(1000, int(50*time.Microsecond/max(one, 1))))
	}
	us := make([]float64, c.batches)
	for b := range us {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		us[b] = float64(time.Since(t0)) / 1e3 / float64(per)
	}
	return median(us), nil
}

// priced is one row of the price list.
type priced struct {
	name string
	fn   func() error
}

func priceList(m *metricSet, cfg config) error {
	c := callSizes(cfg.tiny)
	fx, err := newFixture(cfg.seed)
	if err != nil {
		return err
	}
	defer fx.close()
	for _, p := range fx.rows() {
		us, err := c.timeCalls(p.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m.add(p.name, "us", us)
	}
	if err := fx.sendDeliver(m, c); err != nil {
		return err
	}
	if err := fx.inProcessSessions(m, c.sessions); err != nil {
		return err
	}
	if err := fx.wireSessions(m, c.sessions); err != nil {
		return err
	}
	return legacyAttach(m, c.legacy)
}

// fixture holds one SAP exchange's worth of real messages and the
// principals that produced them.
type fixture struct {
	ca                        *pki.CA
	brokerKey, telcoKey, ueKy *pki.KeyPair
	bs                        *sap.BrokerState
	telco                     *sap.TelcoState
	ueState                   *sap.UEState
	certs                     *pki.CertVerifier

	reqU    *sap.AuthReqU
	pending *sap.PendingAttach
	reqUB   []byte
	reqT    *sap.AuthReqT
	reqTB   []byte
	valid   *sap.ValidatedAuth
	resp    *sap.AuthResp
	respU   *sap.AuthRespU
	ticket  *sap.ResumeSession

	plain, box, sig []byte // an authVec-sized plaintext, sealed and signed
	nasCtx          [2]*nas.SecurityContext
	detach          []byte // encoded DetachRequest, the protected message of the path
	report          *billing.Report
	sealed          *billing.SealedReport
	verifier        *billing.Verifier
	ingestSeq       uint32
	nonce           uint64

	echoSrv *wire.Server
	echo    *wire.Client
}

func newFixture(seed int64) (*fixture, error) {
	fx := &fixture{}
	var err error
	if fx.ca, err = pki.NewCAFromSeed("price-ca", seedBytes(seed, "price-ca")); err != nil {
		return nil, err
	}
	for _, k := range []struct {
		dst   **pki.KeyPair
		label string
	}{{&fx.brokerKey, "price-broker"}, {&fx.telcoKey, "price-telco"}, {&fx.ueKy, "price-ue"}} {
		if *k.dst, err = pki.KeyPairFromSeed(seedBytes(seed, k.label)); err != nil {
			return nil, err
		}
	}
	const idB, idT = "broker.price", "btelco-price"
	fx.bs = sap.NewBrokerState(idB, fx.brokerKey, fx.ca.Public(), sap.AcceptAll(), nil)
	now := time.Now()
	fx.telco = &sap.TelcoState{
		IDT: idT, Key: fx.telcoKey,
		Cert:  fx.ca.Issue(idT, "btelco", fx.telcoKey.Public(), now.Add(-time.Hour), now.Add(24*time.Hour)),
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 2.0},
	}
	fx.ueState = &sap.UEState{IDU: fx.bs.RegisterUser(fx.ueKy.Public()), IDB: idB, Key: fx.ueKy, BrokerPub: fx.brokerKey.Public()}
	fx.certs = pki.NewCertVerifier(fx.ca.Public(), 16)

	// One full exchange, keeping every intermediate message.
	if fx.reqU, fx.pending, err = fx.ueState.NewAttachRequest(idT); err != nil {
		return nil, err
	}
	if fx.reqT, err = fx.telco.ForwardRequest(fx.reqU); err != nil {
		return nil, err
	}
	fx.reqUB, fx.reqTB = fx.reqU.Marshal(), fx.reqT.Marshal()
	if fx.valid, err = fx.bs.Validate(fx.reqT); err != nil {
		return nil, err
	}
	if fx.valid.DenyCause != "" {
		return nil, fmt.Errorf("fixture request denied: %s", fx.valid.DenyCause)
	}
	var rec *sap.GrantRecord
	if fx.resp, rec, err = fx.bs.HandleRequest(fx.reqT); err != nil {
		return nil, err
	}
	if _, fx.respU, err = fx.telco.HandleResponse(fx.brokerKey.Public(), fx.resp); err != nil {
		return nil, err
	}
	fx.ticket = &sap.ResumeSession{IDT: idT, URef: rec.URef, SS: rec.SS}

	// The sealed authVec sets the size pki works on along this path.
	empty, err := pki.Seal(fx.brokerKey.Public(), nil)
	if err != nil {
		return nil, err
	}
	fx.plain = make([]byte, len(fx.reqU.SealedVec)-len(empty))
	fx.box, fx.sig = fx.reqU.SealedVec, fx.reqU.Sig

	fx.nasCtx = [2]*nas.SecurityContext{nas.NewSecurityContext(rec.SS), nas.NewSecurityContext(rec.SS)}
	fx.detach = nas.Encode(&nas.DetachRequest{SessionID: 1})

	fx.report = &billing.Report{SessionRef: rec.URef, Reporter: billing.ReporterTelco, Seq: 1, Rel: sessionRel, DLBytes: 4096}
	if fx.sealed, err = billing.Seal(fx.report, fx.telcoKey, fx.brokerKey.Public()); err != nil {
		return nil, err
	}
	fx.verifier = billing.NewVerifier(billing.DefaultVerifierConfig())
	fx.verifier.BindSession(rec.URef, fx.ueState.IDU, idT)

	if fx.echoSrv, err = wire.NewServer("127.0.0.1:0", func(t byte, p []byte) (byte, []byte, error) { return t, p, nil }); err != nil {
		return nil, err
	}
	if fx.echo, err = wire.Dial(fx.echoSrv.Addr()); err != nil {
		fx.echoSrv.Close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) close() {
	fx.echo.Close()
	fx.echoSrv.Close()
}

func (fx *fixture) rows() []priced {
	brokerPub := fx.brokerKey.Public()
	params := qos.DefaultParams()
	echoPayload := make([]byte, 600)
	return []priced{
		{"pki.sign_us", func() error { fx.ueKy.Sign(fx.box); return nil }},
		{"pki.verify_us", func() error { return fx.ueKy.Public().Verify(fx.box, fx.sig) }},
		{"pki.seal_us", func() error { _, err := pki.Seal(brokerPub, fx.plain); return err }},
		{"pki.open_us", func() error { _, err := fx.brokerKey.Open(fx.box); return err }},
		{"pki.cert_verify_cached_us", func() error { return fx.certs.Verify(fx.telco.Cert, time.Now()) }},

		{"sap.ue_request_us", func() error { _, _, err := fx.ueState.NewAttachRequest(fx.telco.IDT); return err }},
		{"sap.telco_forward_us", func() error { _, err := fx.telco.ForwardRequest(fx.reqU); return err }},
		{"sap.broker_validate_us", func() error {
			v, err := fx.bs.Validate(fx.reqT)
			if err == nil && v.DenyCause != "" {
				err = fmt.Errorf("denied: %s", v.DenyCause)
			}
			return err
		}},
		{"sap.broker_decide_us", func() error {
			// A fresh nonce per call: Decide's replay filter refuses repeats.
			fx.nonce++
			binary.LittleEndian.PutUint64(fx.valid.Vec.Nonce[:], fx.nonce)
			if _, cause := fx.bs.Decide(fx.valid, nil); cause != "" {
				return fmt.Errorf("denied: %s", cause)
			}
			return nil
		}},
		{"sap.broker_finalize_us", func() error {
			ss, uref, err := sap.MintSession()
			if err != nil {
				return err
			}
			_, _, err = fx.bs.Finalize(fx.valid, params, ss, uref)
			return err
		}},
		{"sap.telco_response_us", func() error { _, _, err := fx.telco.HandleResponse(brokerPub, fx.resp); return err }},
		{"sap.ue_response_us", func() error { _, _, err := fx.ueState.HandleResponse(fx.pending, fx.respU); return err }},
		{"sap.resume_us", func() error {
			// Request, bTelco co-sign, broker check and grant, both
			// confirmations: the whole HMAC path of one resumed attach.
			t := fx.ticket
			req, err := t.NewResumeRequest()
			if err != nil {
				return err
			}
			if err := fx.telco.ForwardResume(req, t.SS); err != nil {
				return err
			}
			if err := sap.VerifyResumeReq(req, t.SS); err != nil {
				return err
			}
			resp, _, _ := sap.GrantResume(req, t.SS, params, 1)
			if _, err := fx.telco.AcceptResume(req, resp, t.SS); err != nil {
				return err
			}
			_, _, err = t.HandleResumeResponse(req, resp)
			return err
		}},

		{"nas.protect_us", func() error { fx.nasCtx[0].Protect(nas.Uplink, fx.detach); return nil }},
		{"nas.unprotect_us", func() error {
			// Unprotect enforces rising counts, so each call needs a fresh
			// message; the Protect that makes it is about half the figure.
			_, err := fx.nasCtx[1].Unprotect(nas.Downlink, fx.nasCtx[0].Protect(nas.Downlink, fx.detach))
			return err
		}},
		{"nas.envelope_us", func() error {
			env := nas.AppendEncode(nas.AppendEnvelopeHeader(make([]byte, 0, 512), false, obs.SpanContext{}),
				&nas.AttachRequestSAP{BrokerID: fx.ueState.IDB, AuthReqU: fx.reqUB})
			_, _, body, err := nas.SplitEnvelope(env)
			if err != nil {
				return err
			}
			_, err = nas.Decode(body)
			return err
		}},

		{"codec.sap_marshal_us", func() error { fx.reqT.Marshal(); return nil }},
		{"codec.sap_unmarshal_us", func() error { _, err := sap.UnmarshalAuthReqT(fx.reqTB); return err }},

		{"wire.echo_rtt_us", func() error { _, _, err := fx.echo.Call(wire.TypeNAS, echoPayload); return err }},

		{"billing.seal_us", func() error { _, err := billing.Seal(fx.report, fx.telcoKey, brokerPub); return err }},
		{"billing.open_verify_us", func() error {
			_, err := billing.OpenVerified(fx.sealed, fx.brokerKey, fx.telcoKey.Public())
			return err
		}},
		{"billing.ingest_us", func() error {
			// Alternate reporters on a rising sequence, so every second
			// call completes a pair and runs the discrepancy check.
			r := *fx.report
			r.Reporter = billing.ReporterUE
			if fx.ingestSeq%2 == 1 {
				r.Reporter = billing.ReporterTelco
			}
			r.Seq = 1 + fx.ingestSeq/2
			fx.ingestSeq++
			mm, err := fx.verifier.Ingest(&r)
			if err == nil && mm != nil {
				err = fmt.Errorf("matching reports flagged: %+v", *mm)
			}
			return err
		}},
	}
}

// sendDeliver prices one packet across a two-endpoint Sim: admit to the
// link, schedule, deliver.
func (fx *fixture) sendDeliver(m *metricSet, c calls) error {
	s := netem.NewSim(1)
	s.Connect("a", "b", &netem.Link{Delay: time.Millisecond, BandwidthBps: 1e9})
	delivered := 0
	s.Register("b", func(*netem.Packet) { delivered++ })
	a, b := s.Endpoint("a"), s.Endpoint("b")
	sent := 0
	send := func() error {
		pkt := s.GetPacket()
		pkt.SrcEP, pkt.DstEP, pkt.Size = a, b, 1400
		if !s.Send(pkt) {
			return fmt.Errorf("send refused")
		}
		s.Step()
		sent++
		return nil
	}
	for i := 0; i < 512; i++ { // fill the free lists and every wheel slot
		if err := send(); err != nil {
			return err
		}
	}
	us, err := c.timeCalls(send)
	if err != nil {
		return fmt.Errorf("netem.send_deliver_ns: %w", err)
	}
	if delivered != sent {
		return fmt.Errorf("netem.send_deliver_ns: %d of %d packets delivered", delivered, sent)
	}
	m.add("netem.send_deliver_ns", "ns", us*1e3)
	return nil
}

// directBroker hands the AGW an in-process broker and keeps the time each
// authentication took, so the AGW's own share can be separated out.
type directBroker struct {
	b    *broker.Brokerd
	last time.Duration
	us   []float64
}

func (d *directBroker) Lookup(string) (epc.BrokerClient, pki.PublicIdentity, error) {
	return d, d.b.Public(), nil
}

func (d *directBroker) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	t0 := time.Now()
	resp, err := d.b.HandleAuthRequest(req)
	d.last = time.Since(t0)
	d.us = append(d.us, float64(d.last)/1e3)
	return resp, err
}

// inProcessSessions runs whole sessions with no sockets — UE, AGW and
// brokerd as function calls — and prices the AGW's NAS handling (attach
// plus detach, broker time subtracted), the broker's two handlers and the
// AGW's report generation.
func (fx *fixture) inProcessSessions(m *metricSet, n int) error {
	b := broker.New(broker.DefaultConfig("broker.price", fx.brokerKey, fx.ca.Public()))
	dir := &directBroker{b: b}
	agw := epc.NewAGW(epc.AGWConfig{Telco: fx.telco, Brokers: dir})
	const ranID = "price-ue"
	dev := ue.NewDevice(ranID, nil, &sap.UEState{
		IDU: b.RegisterUser(fx.ueKy.Public()), IDB: b.ID(), Key: fx.ueKy, BrokerPub: b.Public(),
	})
	var inAGW time.Duration // HandleNAS time of the current session
	tx := func(env []byte) ([]byte, error) {
		t0 := time.Now()
		reply, err := agw.HandleNAS(ranID, env)
		inAGW += time.Since(t0)
		return reply, err
	}
	var nasUS, genUS, ingestUS []float64
	for i := 0; i < n; i++ {
		inAGW, dir.last = 0, 0
		a, err := dev.AttachSAP(tx, fx.telco.IDT)
		if err != nil {
			return err
		}
		inAGW -= dir.last
		t0 := time.Now()
		env, err := agw.GenerateReport(a.SessionID, sessionRel, billing.QoSMetrics{})
		genUS = append(genUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		ueEnv, err := dev.Meter.Report(sessionRel)
		if err != nil {
			return err
		}
		for _, e := range []*billing.SealedReport{env, ueEnv} {
			t0 = time.Now()
			mm, err := b.HandleReport(e)
			ingestUS = append(ingestUS, float64(time.Since(t0))/1e3)
			if err != nil {
				return err
			}
			if mm != nil {
				return fmt.Errorf("honest reports flagged: %+v", *mm)
			}
		}
		if err := dev.Detach(tx); err != nil {
			return err
		}
		nasUS = append(nasUS, float64(inAGW)/1e3)
	}
	m.add("epc.handle_nas_us", "us", median(nasUS))
	m.add("epc.report_us", "us", median(genUS))
	m.add("broker.auth_us", "us", median(dir.us))
	m.add("broker.report_us", "us", median(ingestUS))
	return nil
}

// wireSessions prices the broker's two round trips as a bTelco sees them
// through broker.Client on loopback. Building each request (fresh nonce,
// fresh session) is outside the timed calls.
func (fx *fixture) wireSessions(m *metricSet, n int) error {
	b := broker.New(broker.DefaultConfig("broker.price", fx.brokerKey, fx.ca.Public()))
	ueState := *fx.ueState
	ueState.IDU = b.RegisterUser(fx.ueKy.Public())
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := broker.DialClient(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	var authUS, uploadUS []float64
	for i := 0; i < n; i++ {
		reqU, _, err := ueState.NewAttachRequest(fx.telco.IDT)
		if err != nil {
			return err
		}
		reqT, err := fx.telco.ForwardRequest(reqU)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := c.Authenticate(reqT)
		authUS = append(authUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		grant, _, err := fx.telco.HandleResponse(b.Public(), resp)
		if err != nil {
			return err
		}
		env, err := billing.Seal(&billing.Report{SessionRef: grant.URef, Reporter: billing.ReporterTelco, Seq: 1, Rel: sessionRel},
			fx.telcoKey, b.Public())
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = c.UploadReport(env)
		uploadUS = append(uploadUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
	}
	m.add("broker.auth_rtt_us", "us", median(authUS))
	m.add("broker.upload_rtt_us", "us", median(uploadUS))
	return nil
}

// legacyAttach runs the paper's baseline — EPS-AKA attach and detach, which
// touches neither sap, pki nor brokerd — through the testbed's loopback
// deployment. Normalised or not, this socket ping-pong repeats only to
// about ±9 %, which is why it is a layer figure and not a workload.
func legacyAttach(m *metricSet, n int) error {
	d, err := testbed.NewRealDeployment()
	if err != nil {
		return err
	}
	defer d.Close()
	dev, tx, err := d.NewLegacyUE("001010000000001")
	if err != nil {
		return err
	}
	one := func() error {
		if _, err := dev.AttachLegacy(tx); err != nil {
			return err
		}
		return dev.Detach(tx)
	}
	for i := 0; i < max(1, n/10); i++ {
		if err := one(); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := one(); err != nil {
			return err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	runtime.ReadMemStats(&ms)
	m.add("aka.legacy_attach_us_p50", "us", median(us))
	m.add("aka.legacy_allocs_per_op", "count", float64(ms.Mallocs-m0)/float64(n))
	return nil
}
