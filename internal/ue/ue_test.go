package ue

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/billing"
	"cellbricks/internal/nas"
	"cellbricks/internal/obs"
	"cellbricks/internal/pki"
	"cellbricks/internal/sap"
)

func testKey(t *testing.T, seed byte) *pki.KeyPair {
	t.Helper()
	k, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{seed}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDeviceWithoutSIMsRefuses(t *testing.T) {
	d := NewDevice("r", nil, nil)
	if _, err := d.AttachLegacy(nil); err == nil {
		t.Fatal("legacy attach without SIM accepted")
	}
	if _, err := d.AttachSAP(nil, "t"); err == nil {
		t.Fatal("SAP attach without CB state accepted")
	}
	if err := d.Detach(nil); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("detach err = %v", err)
	}
}

func TestAttachSAPRejectsReject(t *testing.T) {
	key := testKey(t, 1)
	brokerKey := testKey(t, 2)
	cb := &sap.UEState{IDU: "u", IDB: "b", Key: key, BrokerPub: brokerKey.Public()}
	d := NewDevice("r", nil, cb)
	tx := func(env []byte) ([]byte, error) {
		return append([]byte{0}, nas.Encode(&nas.AttachReject{Cause: "nope"})...), nil
	}
	_, err := d.AttachSAP(tx, "telco")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	if d.Attached() != nil {
		t.Fatal("device thinks it attached")
	}
}

func TestAttachSAPRejectsUnexpectedMessage(t *testing.T) {
	key := testKey(t, 3)
	cb := &sap.UEState{IDU: "u", IDB: "b", Key: key, BrokerPub: testKey(t, 4).Public()}
	d := NewDevice("r", nil, cb)
	tx := func(env []byte) ([]byte, error) {
		return append([]byte{0}, nas.Encode(&nas.SecurityModeCommand{})...), nil
	}
	if _, err := d.AttachSAP(tx, "telco"); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v", err)
	}
}

func TestAttachSAPRejectsForgedAccept(t *testing.T) {
	// An accept whose authRespU was not produced by the broker must fail
	// broker authentication at the UE: here a box sealed to the UE's own
	// long-term key, which anybody can build, rather than on the request's
	// exchange.
	key := testKey(t, 5)
	brokerKey := testKey(t, 6)
	cb := &sap.UEState{IDU: "u", IDB: "b", Key: key, BrokerPub: brokerKey.Public()}
	d := NewDevice("r", nil, cb)
	tx := func(env []byte) ([]byte, error) {
		sealed, err := pki.Seal(key.Public(), []byte("junk"))
		if err != nil {
			return nil, err
		}
		respU := &sap.AuthRespU{Sealed: sealed}
		accept := &nas.AttachAccept{SessionID: 1, IP: "10.0.0.1", AuthRespU: respU.Marshal()}
		return append([]byte{0}, nas.Encode(accept)...), nil
	}
	if _, err := d.AttachSAP(tx, "telco"); err == nil {
		t.Fatal("forged accept passed broker authentication")
	}
}

func testSealer(t *testing.T, to *pki.KeyPair) *pki.Sealer {
	t.Helper()
	s, err := pki.NewSealer(to.Public())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBasebandMeterCountersAndReport(t *testing.T) {
	key := testKey(t, 8)
	brokerKey := testKey(t, 9)
	m := NewBasebandMeter(key)
	m.StartSession()
	m.BindSession("sess-1", testSealer(t, brokerKey))
	m.CountDL(1000)
	m.CountDL(2000)
	m.CountUL(300)
	m.CountDLLoss(2)
	m.observeDelay(40)
	m.observeDelay(60)

	ul, dl := m.Snapshot()
	if ul != 300 || dl != 3000 {
		t.Fatalf("snapshot = %d/%d", ul, dl)
	}
	env, err := m.Report(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Only the broker can open it; the signature is the device key's.
	r, err := billing.OpenVerified(env, brokerKey, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	if r.SessionRef != "sess-1" || r.DLBytes != 3000 || r.ULBytes != 300 || r.Seq != 1 {
		t.Fatalf("report = %+v", r)
	}
	// Loss rate: 2 lost of (2 received + 2 lost).
	if r.QoS.DLLossRate != 0.5 {
		t.Fatalf("loss = %v", r.QoS.DLLossRate)
	}
	if r.QoS.DLDelayMs != 50 {
		t.Fatalf("delay = %v", r.QoS.DLDelayMs)
	}
	// Sequence advances.
	env2, _ := m.Report(60 * time.Second)
	r2, err := billing.OpenVerified(env2, brokerKey, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seq != 2 {
		t.Fatalf("seq = %d", r2.Seq)
	}
}

// TestBasebandMeterBatchCountMatchesPerPacket: one CountDLBatch of (n bytes,
// k packets) measures the same report as k CountDL calls summing to n,
// including the loss rate, which divides by the packet count.
func TestBasebandMeterBatchCountMatchesPerPacket(t *testing.T) {
	sealer := testSealer(t, testKey(t, 19))
	meter := func() *BasebandMeter {
		m := NewBasebandMeter(testKey(t, 18))
		m.StartSession()
		m.BindSession("s", sealer)
		m.CountDLLoss(3)
		return m
	}
	perPacket, batch := meter(), meter()
	var total uint64
	sizes := []int{1380, 1380, 17, 1380, 0, 512, 1380}
	for _, n := range sizes {
		perPacket.CountDL(n)
		total += uint64(n)
	}
	batch.CountDLBatch(total, uint64(len(sizes)))
	for cycle := 1; cycle <= 2; cycle++ {
		rel := time.Duration(cycle) * 30 * time.Second
		want, _, err := perPacket.measure(rel)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := batch.measure(rel)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cycle %d: batch measured %+v, per-packet %+v", cycle, got, want)
		}
		perPacket.CountDL(700)
		batch.CountDLBatch(700, 1)
	}
}

func TestBasebandMeterResetOnNewSession(t *testing.T) {
	key := testKey(t, 10)
	m := NewBasebandMeter(key)
	m.StartSession()
	m.CountDL(500)
	m.StartSession() // re-attach: counters reset
	ul, dl := m.Snapshot()
	if ul != 0 || dl != 0 {
		t.Fatalf("counters survived new session: %d/%d", ul, dl)
	}
}

func TestMeterReportTamperEvident(t *testing.T) {
	key := testKey(t, 12)
	brokerKey := testKey(t, 13)
	m := NewBasebandMeter(key)
	m.StartSession()
	m.BindSession("s", testSealer(t, brokerKey))
	m.CountDL(1_000_000)
	env, err := m.Report(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The OS layer (outside the baseband) cannot alter the sealed report
	// without detection.
	env.Sealed[40] ^= 0xFF
	if _, err := billing.OpenVerified(env, brokerKey, key.Public()); err == nil {
		t.Fatal("tampered baseband report accepted")
	}
}

func TestTransportErrorPropagates(t *testing.T) {
	key := testKey(t, 14)
	cb := &sap.UEState{IDU: "u", IDB: "b", Key: key, BrokerPub: testKey(t, 15).Public()}
	d := NewDevice("r", nil, cb)
	boom := errors.New("radio failure")
	tx := func([]byte) ([]byte, error) { return nil, boom }
	if _, err := d.AttachSAP(tx, "t"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMeterCallAndSMSAccounting(t *testing.T) {
	key := testKey(t, 16)
	brokerKey := testKey(t, 17)
	m := NewBasebandMeter(key)
	m.StartSession()
	m.BindSession("s", testSealer(t, brokerKey))
	m.addCallSeconds(30.5)
	m.addCallSeconds(12)
	m.countSMS(3)
	env, err := m.Report(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r, err := billing.OpenVerified(env, brokerKey, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	if r.CallSecs != 42.5 || r.SMSCount != 3 {
		t.Fatalf("call=%v sms=%d", r.CallSecs, r.SMSCount)
	}
	// New session resets — and is silent until it is bound to an exchange.
	m.StartSession()
	if _, err := m.Report(time.Second); err == nil {
		t.Fatal("unbound meter emitted a report")
	}
	m.BindSession("s2", testSealer(t, brokerKey))
	env2, _ := m.Report(time.Second)
	r2, _ := billing.OpenVerified(env2, brokerKey, key.Public())
	if r2.CallSecs != 0 || r2.SMSCount != 0 {
		t.Fatal("call/SMS counters survived new session")
	}
}

// scriptedCore is a minimal in-test network side for the legacy flow:
// real AKA vectors, real SMC, real protected accept.
type scriptedCore struct {
	t     *testing.T
	k     aka.K
	sqn   uint64
	xres  []byte
	ctx   *nas.SecurityContext
	state int
}

func (c *scriptedCore) handle(envelope []byte) ([]byte, error) {
	plain := func(m nas.Message) []byte { return append([]byte{0}, nas.Encode(m)...) }
	protected := envelope[0] == 1
	body := envelope[1:]
	if protected {
		pt, err := c.ctx.Unprotect(nas.Uplink, body)
		if err != nil {
			return nil, err
		}
		body = pt
	}
	msg, err := nas.Decode(body)
	if err != nil {
		return nil, err
	}
	switch m := msg.(type) {
	case *nas.AttachRequestLegacy:
		c.sqn++
		v, err := aka.GenerateVector(c.k, c.sqn)
		if err != nil {
			return nil, err
		}
		c.xres = v.XRES
		c.ctx = nas.NewSecurityContext(v.KASME)
		c.state = 1
		return plain(&nas.AuthenticationRequest{RAND: v.RAND, AUTN: v.AUTN}), nil
	case *nas.AuthenticationResponse:
		if c.state != 1 || !bytes.Equal(m.RES, c.xres) {
			return plain(&nas.AttachReject{Cause: "RES mismatch"}), nil
		}
		c.state = 2
		return plain(&nas.SecurityModeCommand{CipherAlg: 2, IntegrityAlg: 2}), nil
	case *nas.SecurityModeComplete:
		if c.state != 2 || !protected {
			return nil, errors.New("SMC complete out of order")
		}
		c.state = 3
		accept := &nas.AttachAccept{SessionID: 7, IP: "10.9.9.9", BearerID: 1, QCI: 9}
		return append([]byte{1}, c.ctx.Protect(nas.Downlink, nas.Encode(accept))...), nil
	case *nas.DetachRequest:
		if !protected {
			return nil, errors.New("unprotected detach")
		}
		return append([]byte{1}, c.ctx.Protect(nas.Downlink, nas.Encode(&nas.DetachAccept{SessionID: m.SessionID}))...), nil
	default:
		return nil, errors.New("unexpected message")
	}
}

func TestAttachLegacyFullFlow(t *testing.T) {
	k := aka.K{5, 5, 5}
	core := &scriptedCore{t: t, k: k}
	d := NewDevice("r", &aka.SIM{K: k, IMSI: "001015551234567"}, nil)
	a, err := d.AttachLegacy(core.handle)
	if err != nil {
		t.Fatal(err)
	}
	if a.IP != "10.9.9.9" || a.SessionID != 7 {
		t.Fatalf("attachment = %+v", a)
	}
	if d.ctx == nil {
		t.Fatal("no security context after legacy attach")
	}
	if err := d.Detach(core.handle); err != nil {
		t.Fatal(err)
	}
	if d.Attached() != nil || d.ctx != nil {
		t.Fatal("state survived detach")
	}
}

func TestAttachLegacyRejectMidway(t *testing.T) {
	// A reject in place of the SMC surfaces as ErrRejected.
	k := aka.K{6, 6, 6}
	step := 0
	tx := func(envelope []byte) ([]byte, error) {
		step++
		if step == 1 {
			v, err := aka.GenerateVector(k, 1)
			if err != nil {
				return nil, err
			}
			return append([]byte{0}, nas.Encode(&nas.AuthenticationRequest{RAND: v.RAND, AUTN: v.AUTN})...), nil
		}
		return append([]byte{0}, nas.Encode(&nas.AttachReject{Cause: "subscription expired"})...), nil
	}
	d := NewDevice("r", &aka.SIM{K: k, IMSI: "00101"}, nil)
	if _, err := d.AttachLegacy(tx); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestAttachAutoPrefersSAPFallsBack(t *testing.T) {
	// No CellBricks state at all: AttachAuto goes straight to legacy.
	k := aka.K{7, 7, 7}
	core := &scriptedCore{t: t, k: k}
	d := NewDevice("r", &aka.SIM{K: k, IMSI: "00101"}, nil)
	if _, err := d.AttachAuto(core.handle, "any"); err != nil {
		t.Fatal(err)
	}
	// CB-only device with a failing network: the SAP error surfaces (no
	// legacy to fall back to).
	key := testKey(t, 20)
	cb := &sap.UEState{IDU: "u", IDB: "b", Key: key, BrokerPub: testKey(t, 21).Public()}
	d2 := NewDevice("r2", nil, cb)
	boom := errors.New("no SAP here")
	if _, err := d2.AttachAuto(func([]byte) ([]byte, error) { return nil, boom }, "t"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestProtectedReplyWithoutContext(t *testing.T) {
	d := NewDevice("r", nil, nil)
	// A protected downlink envelope before any attach must be rejected.
	if _, err := d.decodeReply([]byte{1, 0, 0, 0}); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.decodeReply(nil); err == nil {
		t.Fatal("empty reply accepted")
	}
}

// plainEnvelope is one buffer of exactly the envelope's size, traced or
// not, for an attach request carrying a ~300-byte authReqU: the 96-byte
// buffer it was built in before regrew.
func TestPlainEnvelopeOneAllocation(t *testing.T) {
	m := &nas.AttachRequestSAP{BrokerID: "broker-1", AuthReqU: bytes.Repeat([]byte{9}, 300)}
	for _, sc := range []obs.SpanContext{{}, {Trace: 1, Span: 2, Parent: 3}} {
		var env []byte
		if n := testing.AllocsPerRun(100, func() { env = plainEnvelope(m, sc) }); n != 1 {
			t.Errorf("traced %v: %v allocations, want 1", sc.Valid(), n)
		}
		want := nas.AppendEncode(nas.AppendEnvelopeHeader(nil, false, sc), m)
		if !bytes.Equal(env, want) || cap(env) != len(env) {
			t.Errorf("traced %v: %d-byte envelope in a buffer of %d, or other bytes", sc.Valid(), len(env), cap(env))
		}
	}
}

// addCallSeconds records voice-call airtime (the "duration for phone
// call" field of the paper's traffic report).
func (m *BasebandMeter) addCallSeconds(s float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.callSecs += s
}

// countSMS records sent/received SMS events.
func (m *BasebandMeter) countSMS(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.smsCount += uint32(n)
}

// observeDelay records a delay sample in milliseconds.
func (m *BasebandMeter) observeDelay(ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delaySumMs += ms
	m.delayN++
}
