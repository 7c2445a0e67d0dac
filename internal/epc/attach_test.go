package epc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

// localDirectory resolves every broker ID to one in-process brokerd.
type localDirectory struct {
	b *broker.Brokerd
}

func (d localDirectory) Lookup(idB string) (BrokerClient, pki.PublicIdentity, error) {
	if idB != d.b.ID() {
		return nil, pki.PublicIdentity{}, errors.New("unknown broker")
	}
	return localBrokerClient{d.b}, d.b.Public(), nil
}

type localBrokerClient struct{ b *broker.Brokerd }

func (c localBrokerClient) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	return c.b.HandleAuthRequest(req)
}

type world struct {
	agw       *AGW
	brk       *broker.Brokerd
	brokerKey *pki.KeyPair
	dev       *ue.Device
	legacy    *ue.Device
	tx        ue.NASTransport
}

func buildWorld(t *testing.T) *world {
	t.Helper()
	ca, err := pki.NewCAFromSeed("ca", bytes.Repeat([]byte{50}, 32))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_750_000_000, 0)

	brokerKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{51}, 32))
	cfg := broker.DefaultConfig("broker.example", brokerKey, ca.Public())
	cfg.Now = func() time.Time { return now }
	brk := broker.New(cfg)

	ueKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{52}, 32))
	idU := brk.RegisterUser(ueKey.Public())

	telcoKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{53}, 32))
	telcoCert := ca.Issue("btelco-1", "btelco", telcoKey.Public(), now.Add(-time.Hour), now.Add(time.Hour))
	telco := &sap.TelcoState{
		IDT:   "btelco-1",
		Key:   telcoKey,
		Cert:  telcoCert,
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 2.0},
	}

	sdb := NewSubscriberDB()
	k := aka.K{9, 9, 9}
	sdb.Provision("001019999999999", k, SubscriberProfile{QoS: qos.DefaultParams(), APN: "internet"})

	agw := NewAGW(AGWConfig{
		Telco:       telco,
		Subscribers: sdbDirect{sdb},
		Brokers:     localDirectory{brk},
	})

	cbSIM := &sap.UEState{IDU: idU, IDB: "broker.example", Key: ueKey, BrokerPub: brokerKey.Public()}
	dev := ue.NewDevice("ran-ue-1", nil, cbSIM)
	legacyDev := ue.NewDevice("ran-ue-2", &aka.SIM{K: k, IMSI: "001019999999999"}, nil)

	return &world{
		agw:       agw,
		brk:       brk,
		brokerKey: brokerKey,
		dev:       dev,
		legacy:    legacyDev,
		tx:        func(env []byte) ([]byte, error) { return agw.HandleNAS("ran-ue-1", env) },
	}
}

// sdbDirect adapts a SubscriberDB to the SubscriberClient interface.
type sdbDirect struct{ db *SubscriberDB }

func (s sdbDirect) AuthInfo(imsi string) (aka.Vector, error) { return s.db.AuthInfo(imsi) }
func (s sdbDirect) UpdateLocation(imsi string) (SubscriberProfile, error) {
	return s.db.UpdateLocation(imsi)
}

func TestSAPAttachEndToEnd(t *testing.T) {
	w := buildWorld(t)
	a, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	if a.IP == "" || a.SessionID == 0 {
		t.Fatalf("attachment = %+v", a)
	}
	if w.agw.ActiveSessions() != 1 {
		t.Fatalf("active sessions = %d", w.agw.ActiveSessions())
	}
	sess := w.agw.Session(a.SessionID)
	if sess.Kind != KindSAP || sess.URef == "" {
		t.Fatalf("session = %+v", sess)
	}
	// The broker recorded the grant under the same reference.
	if st, err := w.brk.SettleSession(sess.URef); err != nil || st.IDT != "btelco-1" {
		t.Fatalf("broker grant missing for %q: %+v, %v", sess.URef, st, err)
	}
	// The UE and AGW share a working security context: detach (protected)
	// round-trips.
	if err := w.dev.Detach(w.tx); err != nil {
		t.Fatal(err)
	}
	if w.agw.ActiveSessions() != 0 {
		t.Fatal("session survived detach")
	}
	if w.dev.Attached() != nil {
		t.Fatal("UE still thinks it is attached")
	}
}

func TestLegacyAttachEndToEnd(t *testing.T) {
	w := buildWorld(t)
	tx := func(env []byte) ([]byte, error) { return w.agw.HandleNAS("ran-ue-2", env) }
	a, err := w.legacy.AttachLegacy(tx)
	if err != nil {
		t.Fatal(err)
	}
	if a.IP == "" {
		t.Fatalf("attachment = %+v", a)
	}
	sess := w.agw.Session(a.SessionID)
	if sess.Kind != KindLegacy || sess.IMSI != "001019999999999" {
		t.Fatalf("session = %+v", sess)
	}
	if err := w.legacy.Detach(tx); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyAttachWrongKeyRejected(t *testing.T) {
	w := buildWorld(t)
	badDev := ue.NewDevice("ran-ue-3", &aka.SIM{K: aka.K{1, 2, 3}, IMSI: "001019999999999"}, nil)
	tx := func(env []byte) ([]byte, error) { return w.agw.HandleNAS("ran-ue-3", env) }
	_, err := badDev.AttachLegacy(tx)
	if err == nil {
		t.Fatal("attach with wrong K succeeded")
	}
	// The UE itself refuses first: the network's AUTN fails MAC check
	// under the wrong key (mutual authentication).
	if !errors.Is(err, aka.ErrMACFailure) {
		t.Fatalf("err = %v, want MAC failure", err)
	}
}

func TestSAPAttachUnknownBroker(t *testing.T) {
	w := buildWorld(t)
	dev := w.dev
	dev.CB.IDB = "nonexistent.example"
	_, err := dev.AttachSAP(w.tx, "btelco-1")
	if err == nil || !strings.Contains(err.Error(), "unknown broker") {
		t.Fatalf("err = %v", err)
	}
}

func TestSAPAttachForeignUserRejected(t *testing.T) {
	w := buildWorld(t)
	strangerKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{99}, 32))
	stranger := ue.NewDevice("ran-x", nil, &sap.UEState{
		IDU:       strangerKey.Public().Digest(),
		IDB:       "broker.example",
		Key:       strangerKey,
		BrokerPub: w.brk.Public(),
	})
	tx := func(env []byte) ([]byte, error) { return w.agw.HandleNAS("ran-x", env) }
	if _, err := stranger.AttachSAP(tx, "btelco-1"); !errors.Is(err, ue.ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
}

func TestReattachAfterDetach(t *testing.T) {
	w := buildWorld(t)
	a1, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.dev.Detach(w.tx); err != nil {
		t.Fatal(err)
	}
	a2, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	if a2.SessionID == a1.SessionID {
		t.Fatal("session ID reused across attaches")
	}
	// Host-driven mobility changes the IP (released then reallocated pool
	// address is fine; what matters is a valid new attachment).
	if a2.IP == "" {
		t.Fatal("no IP on re-attach")
	}
}

func TestUsageCountingAndTelcoReport(t *testing.T) {
	w := buildWorld(t)
	a, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	bearer := w.agw.UserPlane().Lookup(a.IP)
	if bearer == nil {
		t.Fatal("no bearer for UE IP")
	}
	// Pass traffic through the user plane and the baseband meter.
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		if bearer.Process(now, Downlink, 1200) {
			w.dev.Meter.CountDL(1200)
		}
		if bearer.Process(now, Uplink, 100) {
			w.dev.Meter.CountUL(100)
		}
	}
	// Telco-side report flows to the broker...
	env, err := w.agw.GenerateReport(a.SessionID, 30*time.Second, billing.QoSMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.brk.HandleReport(env); err != nil {
		t.Fatal(err)
	}
	// ...and the UE-side report matches, so no mismatch is flagged.
	uenv, err := w.dev.Meter.Report(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.brk.HandleReport(uenv)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("honest session flagged: %+v", m)
	}
	if s := w.brk.TelcoScore("btelco-1"); s < 0.99 {
		t.Fatalf("telco score %.3f after honest reports", s)
	}
}

// concurrentSessions attaches n fresh subscribers of the world's broker
// through its AGW and returns their session IDs.
func concurrentSessions(t *testing.T, w *world, n int) []uint64 {
	t.Helper()
	ids := make([]uint64, n)
	for s := range ids {
		ranID := fmt.Sprintf("ran-conc-%d", s)
		key, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{byte(150 + s)}, 32))
		if err != nil {
			t.Fatal(err)
		}
		dev := ue.NewDevice(ranID, nil, &sap.UEState{
			IDU: w.brk.RegisterUser(key.Public()), IDB: "broker.example", Key: key, BrokerPub: w.brokerKey.Public(),
		})
		a, err := dev.AttachSAP(func(env []byte) ([]byte, error) { return w.agw.HandleNAS(ranID, env) }, "btelco-1")
		if err != nil {
			t.Fatal(err)
		}
		ids[s] = a.SessionID
	}
	return ids
}

// Report drivers run concurrently — two per session (core.Cast.ReportCycle's
// and RealDeployment's are both reachable that way), several sessions at once —
// and share the bTelco's one stream toward the broker. A session must never
// emit a duplicate or skipped Seq (the verifier would book it as a replay
// against an honest bTelco), and the stream must sign exactly one checkpoint
// per 256 MAC'd reports whatever the interleaving (DESIGN.md §2.10).
// Meaningful under -race: the Seq counter used to be bumped outside the AGW
// lock.
func TestGenerateReportConcurrentSeqsDistinctGapFree(t *testing.T) {
	w := buildWorld(t)
	const sessions, drivers, each = 4, 2, 80
	seqs := make([]map[uint32]bool, sessions)
	macd, checkpoints := 0, 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s, id := range concurrentSessions(t, w, sessions) {
		seqs[s] = make(map[uint32]bool)
		for g := 0; g < drivers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					env, err := w.agw.GenerateReport(id, time.Second, billing.QoSMetrics{})
					if err != nil {
						t.Error(err)
						return
					}
					o, err := billing.Open(env, w.brokerKey)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if seqs[s][o.Report.Seq] {
						t.Errorf("session %d: sequence number %d emitted twice", s, o.Report.Seq)
					}
					seqs[s][o.Report.Seq] = true
					if o.MACd {
						macd++
					}
					if cp := env.Checkpoint; cp != nil {
						checkpoints++
						if len(cp.Digests) != 256 {
							t.Errorf("a checkpoint of %d digests", len(cp.Digests))
						}
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	for s := range seqs {
		for q := uint32(1); q <= drivers*each; q++ {
			if !seqs[s][q] {
				t.Fatalf("session %d: sequence number %d missing from 1..%d", s, q, drivers*each)
			}
		}
	}
	// The stream's first report is signed; every other one is MAC'd.
	if want := sessions*drivers*each - 1; macd != want || checkpoints != want/256 {
		t.Fatalf("%d MAC'd reports carrying %d checkpoints, want %d and %d", macd, checkpoints, want, want/256)
	}
}

// Sessions report concurrently, each uploading what it generates, so the
// broker ingests the bTelco's stream out of the order it was sealed in:
// checkpoints overtake reports they list, reports overtake the checkpoint
// that lists them. None of that is misconduct (a report would have to
// overtake a whole checkpoint interval of earlier ones to look like an
// omission), and every checkpoint is kept.
func TestConcurrentSessionsReportOnOneStream(t *testing.T) {
	w := buildWorld(t)
	const sessions, each = 6, 120
	var wg sync.WaitGroup
	for _, id := range concurrentSessions(t, w, sessions) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				env, err := w.agw.GenerateReport(id, time.Second, billing.QoSMetrics{})
				if err == nil {
					_, err = w.brk.HandleReport(env)
				}
				if err != nil {
					t.Errorf("session %d report %d: %v", id, i+1, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if kept, want := len(w.brk.Checkpoints(billing.ReporterTelco, "btelco-1")), (sessions*each-1)/256; kept != want {
		t.Fatalf("broker kept %d checkpoints, want %d", kept, want)
	}
	if s := w.brk.TelcoScore("btelco-1"); s < 1 {
		t.Fatalf("telco score %v after honest, reordered reports", s)
	}
}

// Both reporters answer the broker's "sign it" (DESIGN.md §2.10): the report
// a MAC'd upload was refused for goes out again signed, under the same Seq,
// and pairs with the other side's as if nothing had happened.
func TestUploadReportResendsSignedWhenRefused(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.dev.AttachSAP(w.tx, "btelco-1"); err != nil {
		t.Fatal(err)
	}
	if err := w.dev.Detach(w.tx); err != nil {
		t.Fatal(err)
	}
	a, err := w.dev.AttachSAP(w.tx, "btelco-1") // ticketed, and under the pass
	if err != nil {
		t.Fatal(err)
	}
	// refuse is a broker that has forgotten every MAC key for one report.
	var sigs []int
	refuse := true
	up := func(env *billing.SealedReport) error {
		sigs = append(sigs, len(env.Sig))
		if len(env.Sig) == 32 && refuse {
			refuse = false
			return fmt.Errorf("broker: %w", billing.ErrMustSign)
		}
		m, err := w.brk.HandleReport(env)
		if m != nil {
			t.Errorf("mismatch: %+v", m)
		}
		return err
	}
	for cycle, want := range [][]int{{64, 64}, {32, 64, 32, 64}, {32, 32}} {
		rel := time.Duration(cycle+1) * 30 * time.Second
		sigs, refuse = sigs[:0], cycle == 1
		if err := w.agw.UploadReport(a.SessionID, rel, billing.QoSMetrics{}, up); err != nil {
			t.Fatalf("cycle %d, bTelco: %v", cycle, err)
		}
		refuse = cycle == 1
		if err := w.dev.Meter.UploadReport(rel, up); err != nil {
			t.Fatalf("cycle %d, UE: %v", cycle, err)
		}
		if !slices.Equal(sigs, want) {
			t.Fatalf("cycle %d: Sig lengths %v, want %v", cycle, sigs, want)
		}
	}
	if s := w.brk.TelcoScore("btelco-1"); s < 0.99 {
		t.Fatalf("telco score %.3f", s)
	}
}

func TestDishonestTelcoDetected(t *testing.T) {
	w := buildWorld(t)
	a, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	bearer := w.agw.UserPlane().Lookup(a.IP)
	// Telco counts 3x what actually reached the UE (inflation).
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		bearer.Process(now, Downlink, 1200)
		bearer.Process(now, Downlink, 1200)
		bearer.Process(now, Downlink, 1200)
		w.dev.Meter.CountDL(1200)
	}
	env, _ := w.agw.GenerateReport(a.SessionID, 30*time.Second, billing.QoSMetrics{})
	if _, err := w.brk.HandleReport(env); err != nil {
		t.Fatal(err)
	}
	uenv, _ := w.dev.Meter.Report(30 * time.Second)
	m, err := w.brk.HandleReport(uenv)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("3x inflation not flagged")
	}
	if s := w.brk.TelcoScore("btelco-1"); s >= 1.0 {
		t.Fatalf("score unchanged: %v", s)
	}
}

func TestLawfulInterceptTap(t *testing.T) {
	w := buildWorld(t)
	// The bTelco advertises LI; the broker's grant carries the flag; the
	// AGW mirrors user-plane events once configured with a sink.
	var tapped []InterceptRecord
	w.agw.cfg.Intercept = func(r InterceptRecord) { tapped = append(tapped, r) }
	w.agw.cfg.Telco.Terms.LawfulIntercept = true

	a, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	bearer := w.agw.UserPlane().Lookup(a.IP)
	bearer.Process(0, Downlink, 1000)
	bearer.Process(0, Uplink, 200)
	if len(tapped) != 2 {
		t.Fatalf("tapped %d events, want 2", len(tapped))
	}
	if tapped[0].Bytes != 1000 || tapped[0].Dir != Downlink || tapped[0].IP != a.IP {
		t.Fatalf("record = %+v", tapped[0])
	}
	// Without the LI flag, nothing is mirrored even with a sink present.
	w.agw.cfg.Telco.Terms.LawfulIntercept = false
	dev2 := ue.NewDevice("ran-li-2", nil, w.dev.CB)
	tx2 := func(env []byte) ([]byte, error) { return w.agw.HandleNAS("ran-li-2", env) }
	a2, err := dev2.AttachSAP(tx2, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	before := len(tapped)
	w.agw.UserPlane().Lookup(a2.IP).Process(0, Downlink, 500)
	if len(tapped) != before {
		t.Fatal("non-LI session was intercepted")
	}
}

func TestDualStackAutoAttach(t *testing.T) {
	w := buildWorld(t)
	// A dual-stack device against a legacy-only AGW (no Telco configured)
	// falls back to EPS-AKA.
	legacyOnly := NewAGW(AGWConfig{Subscribers: sdbDirect{mustSDB(t)}})
	k := aka.K{4, 4, 4}
	legacyOnly.cfg.Subscribers.(sdbDirect).db.Provision("001010000000077", k, SubscriberProfile{QoS: qos.DefaultParams()})
	dual := ue.NewDevice("dual-1", &aka.SIM{K: k, IMSI: "001010000000077"}, w.dev.CB)
	tx := func(env []byte) ([]byte, error) { return legacyOnly.HandleNAS("dual-1", env) }
	a, err := dual.AttachAuto(tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	if legacyOnly.Session(a.SessionID).Kind != KindLegacy {
		t.Fatal("fallback did not use the legacy flow")
	}
	// Against the CellBricks-capable AGW, the same device uses SAP.
	dual2 := ue.NewDevice("dual-2", &aka.SIM{K: k, IMSI: "001010000000077"}, w.dev.CB)
	tx2 := func(env []byte) ([]byte, error) { return w.agw.HandleNAS("dual-2", env) }
	a2, err := dual2.AttachAuto(tx2, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	if w.agw.Session(a2.SessionID).Kind != KindSAP {
		t.Fatal("dual-stack device did not prefer SAP")
	}
}

func mustSDB(t *testing.T) *SubscriberDB {
	t.Helper()
	return NewSubscriberDB()
}

func TestNASWireServers(t *testing.T) {
	w := buildWorld(t)
	srv, err := ServeNAS(w.agw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	dev := ue.NewDevice("wire-ue", nil, w.dev.CB)
	tx := func(env []byte) ([]byte, error) {
		_, reply, err := client.Call(wire.TypeNAS, EncodeNASCall("wire-ue", env))
		return reply, err
	}
	a, err := dev.AttachSAP(tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	if a.IP == "" {
		t.Fatal("no IP over the wire")
	}
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}
	// Wrong message type and malformed payload are rejected.
	if _, _, err := client.Call(wire.TypeAIR, nil); err == nil {
		t.Fatal("wrong type accepted by NAS server")
	}
	if _, _, err := client.Call(wire.TypeNAS, []byte{1, 2}); err == nil {
		t.Fatal("malformed NAS call accepted")
	}
}

func TestSDBWireServer(t *testing.T) {
	db := NewSubscriberDB()
	k := aka.K{8, 8, 8}
	db.Provision("001018888888888", k, SubscriberProfile{QoS: qos.DefaultParams(), APN: "net"})
	srv, err := ServeSDB(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialSDB(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.AuthInfo("001018888888888")
	if err != nil {
		t.Fatal(err)
	}
	sim := &aka.SIM{K: k}
	if _, _, err := sim.Answer(v.RAND, v.AUTN); err != nil {
		t.Fatalf("vector over wire unusable: %v", err)
	}
	p, err := c.UpdateLocation("001018888888888")
	if err != nil {
		t.Fatal(err)
	}
	if p.APN != "net" {
		t.Fatalf("profile = %+v", p)
	}
	if _, err := c.AuthInfo("nobody"); err == nil {
		t.Fatal("unknown IMSI over wire accepted")
	}
}

func TestAGWStateMachineErrors(t *testing.T) {
	w := buildWorld(t)
	attaches := mtr.attaches.Value()
	// Protected message with no session.
	if _, err := w.agw.HandleNAS("ghost", []byte{1, 0, 0, 0, 0}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
	// Empty envelope.
	if _, err := w.agw.HandleNAS("ghost", nil); err == nil {
		t.Fatal("empty envelope accepted")
	}
	// AuthenticationResponse without a pending challenge.
	env := append([]byte{0}, nas.Encode(&nas.AuthenticationResponse{RES: []byte{1}})...)
	if _, err := w.agw.HandleNAS("ghost", env); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
	// Unprotected detach after attach is refused.
	a, err := w.dev.AttachSAP(w.tx, "btelco-1")
	if err != nil {
		t.Fatal(err)
	}
	plainDetach := append([]byte{0}, nas.Encode(&nas.DetachRequest{SessionID: a.SessionID})...)
	if _, err := w.agw.HandleNAS("ran-ue-1", plainDetach); !errors.Is(err, ErrProtectedRequired) {
		t.Fatalf("err = %v", err)
	}
	// The AGW's counters reflect the attach.
	if n, active := mtr.attaches.Value()-attaches, w.agw.ActiveSessions(); n != 1 || active != 1 {
		t.Fatalf("%d attaches counted, %d sessions active", n, active)
	}
}

func TestAGWRejectCounting(t *testing.T) {
	w := buildWorld(t)
	strangerKey, _ := pki.KeyPairFromSeed(bytes.Repeat([]byte{98}, 32))
	stranger := ue.NewDevice("ran-rej", nil, &sap.UEState{
		IDU: strangerKey.Public().Digest(), IDB: "broker.example",
		Key: strangerKey, BrokerPub: w.brk.Public(),
	})
	tx := func(env []byte) ([]byte, error) { return w.agw.HandleNAS("ran-rej", env) }
	failures := mtr.attachFailures.Value()
	stranger.AttachSAP(tx, "btelco-1") // denied: unknown user
	if mtr.attachFailures.Value() == failures {
		t.Fatal("failure not counted")
	}
}
