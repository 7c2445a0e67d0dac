package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/epc"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/testbed"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

// sessionReal is the closed-loop, one-UE workload over real loopback
// sockets: op = one billed session (SAP attach, both sides' sealed reports
// uploaded through one persistent broker connection, detach).
type sessionReal struct {
	cfg    config
	segOps int
	warm   int
	rng    *rand.Rand // seeded per-session traffic

	dep realDep
	dev *ue.Device
	tx  ue.NASTransport
	up  *broker.Client
	rec atomic.Pointer[recorder] // read by the AGW's server goroutine

	nextOp int
	opMS   []float64 // per-op wall time of untraced ops
}

// realDep is what the workload needs from a loopback deployment, whether
// testbed.NewRealDeployment built it or assembleDeployment did.
type realDep struct {
	agw        *epc.AGW
	brokerAddr string
	telcoID    string
	newUE      func() (*ue.Device, ue.NASTransport, error)
	close      func()
}

func newSessionReal(cfg config) *sessionReal {
	w := &sessionReal{cfg: cfg, segOps: 100, warm: 300}
	if cfg.tiny {
		w.segOps, w.warm = 3, 3
	}
	return w
}

func (w *sessionReal) setUp() error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.nextOp = 0
	if w.cfg.trace {
		// The traced run needs a span around the AGW's broker round trip,
		// which only a deployment assembled here can give.
		dep, err := assembleDeployment(w.cfg.seed, &w.rec)
		if err != nil {
			return err
		}
		w.dep = dep
	} else {
		d, err := testbed.NewRealDeployment()
		if err != nil {
			return err
		}
		w.dep = realDep{agw: d.AGW, brokerAddr: d.BrokerSrv.Addr(), telcoID: d.TelcoID(), newUE: d.NewCellBricksUE, close: d.Close}
	}
	var err error
	var tx ue.NASTransport
	if w.dev, tx, err = w.dep.newUE(); err != nil {
		return err
	}
	w.tx = func(env []byte) ([]byte, error) {
		defer w.rec.Load().begin("wire.nas_rtt")()
		return tx(env)
	}
	// One persistent upload connection: dialling per report would park two
	// sockets per op in TIME_WAIT.
	if w.up, err = broker.DialClient(w.dep.brokerAddr); err != nil {
		return err
	}
	for i := 0; i < w.warm; i++ {
		if err := w.op(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *sessionReal) tearDown() {
	if w.up != nil {
		w.up.Close()
		w.up = nil
	}
	if w.dep.close != nil {
		w.dep.close()
		w.dep = realDep{}
	}
}

const sessionRel = 30 * time.Second

// op runs one billed session and checks what came back.
func (w *sessionReal) op() error {
	rec := w.rec.Load()
	rec.setOp(w.nextOp)
	w.nextOp++

	end := rec.begin("ue.attach")
	a, err := w.dev.AttachSAP(w.tx, w.dep.telcoID)
	end()
	if err != nil {
		return err
	}
	if a.SessionID == 0 || a.IP == "" {
		return fmt.Errorf("attach returned session %d ip %q", a.SessionID, a.IP)
	}
	// A few seeded downlink packets, counted by the AGW's bearer and, when
	// the policer passes them, by the baseband meter, so the two reports
	// carry matching non-zero counters.
	bearer := w.dep.agw.UserPlane().Lookup(a.IP)
	if bearer == nil {
		return fmt.Errorf("no bearer for %s", a.IP)
	}
	for j, n := 0, 1+w.rng.Intn(8); j < n; j++ {
		size := 200 + w.rng.Intn(1200)
		if bearer.Process(time.Duration(j)*10*time.Millisecond, epc.Downlink, size) {
			w.dev.Meter.CountDL(size)
		}
	}

	end = rec.begin("epc.report")
	env, err := w.dep.agw.GenerateReport(a.SessionID, sessionRel, billing.QoSMetrics{})
	end()
	if err != nil {
		return err
	}
	if err := w.upload(rec, env); err != nil {
		return err
	}
	end = rec.begin("ue.report")
	env, err = w.dev.Meter.Report(sessionRel)
	end()
	if err != nil {
		return err
	}
	if err := w.upload(rec, env); err != nil {
		return err
	}

	end = rec.begin("ue.detach")
	err = w.dev.Detach(w.tx)
	end()
	return err
}

func (w *sessionReal) upload(rec *recorder, env *billing.SealedReport) error {
	defer rec.begin("billing.upload")()
	return w.up.UploadReport(env)
}

func (w *sessionReal) segment(_ int, rec *recorder) (int, int, error) {
	w.rec.Store(rec)
	defer w.rec.Store(nil)
	for i := 0; i < w.segOps; i++ {
		t0 := time.Now()
		if err := w.op(); err != nil {
			return 0, 0, err
		}
		if rec == nil {
			w.opMS = append(w.opMS, float64(time.Since(t0))/1e6)
		}
	}
	return w.segOps, 0, nil
}

func (w *sessionReal) opMillis() []float64 { return w.opMS }

func (w *sessionReal) verify(d map[string]float64, ops int) error {
	if got := d["broker_attach_granted_total"]; got != float64(ops) {
		return fmt.Errorf("broker granted %v attaches for %d ops", got, ops)
	}
	if got := d["broker_reports_ingested_total"]; got != float64(2*ops) {
		return fmt.Errorf("broker ingested %v reports for %d ops", got, ops)
	}
	if got := d["broker_report_mismatches_total"]; got != 0 {
		return fmt.Errorf("%v billing mismatches on honest sessions", got)
	}
	if r := d["wire_client_retries_total"] + d["wire_client_redials_total"]; r != 0 {
		return fmt.Errorf("%v wire retries/redials on loopback", r)
	}
	if n := w.dep.agw.ActiveSessions(); n != 0 {
		return fmt.Errorf("%d sessions leaked at the AGW", n)
	}
	return nil
}

func (w *sessionReal) layers(lc layerCtx) (map[string]float64, error) {
	self := selfByName(lc.spans)
	var covered float64 // µs of traced op time some span accounts for
	for _, xs := range self {
		for _, x := range xs {
			covered += x
		}
	}
	var rtts []float64
	tracedOps := map[int]bool{}
	for _, s := range lc.spans {
		tracedOps[s.Op] = true
		if s.Name == "wire.nas_rtt" {
			rtts = append(rtts, float64(s.End-s.Start)/1e3)
		}
	}
	return map[string]float64{
		"ue.attach_us_p50":       median(self["ue.attach"]),
		"ue.attach_us_p99":       p99("ue.attach_us_p99", self["ue.attach"]),
		"ue.detach_us_p50":       median(self["ue.detach"]),
		"ue.report_us_p50":       median(self["ue.report"]),
		"wire.nas_rtt_us_p50":    median(rtts),
		"wire.nas_rtts_per_op":   float64(len(rtts)) / float64(len(tracedOps)),
		"trace.residual_frac":    1 - covered*1e3/float64(lc.tracedWall),
		"ue.attempts_per_attach": 1, // closed loop: an attach that fails ends the run
	}, nil
}

// seedBytes derives a 32-byte key seed from the run seed and a label.
func seedBytes(seed int64, label string) []byte {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], uint64(seed))
	h := sha256.Sum256(append(s[:], label...))
	return h[:]
}

// assembleDeployment builds the same loopback topology as
// testbed.NewRealDeployment (brokerd and the AGW as real wire servers, a
// fresh broker connection per attach) from the packages' public
// constructors, so that the AGW's northbound client can be wrapped in a
// span. Keys come from the seed.
func assembleDeployment(seed int64, rec *atomic.Pointer[recorder]) (realDep, error) {
	ca, err := pki.NewCAFromSeed("bench-ca", seedBytes(seed, "ca"))
	if err != nil {
		return realDep{}, err
	}
	brokerKey, err := pki.KeyPairFromSeed(seedBytes(seed, "broker"))
	if err != nil {
		return realDep{}, err
	}
	telcoKey, err := pki.KeyPairFromSeed(seedBytes(seed, "telco"))
	if err != nil {
		return realDep{}, err
	}
	b := broker.New(broker.DefaultConfig("broker.bench", brokerKey, ca.Public()))
	bsrv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		return realDep{}, err
	}
	now := time.Now()
	telco := &sap.TelcoState{
		IDT: "btelco-bench", Key: telcoKey,
		Cert:  ca.Issue("btelco-bench", "btelco", telcoKey.Public(), now.Add(-time.Hour), now.Add(24*time.Hour)),
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 2.0},
	}
	agw := epc.NewAGW(epc.AGWConfig{
		Telco:   telco,
		Brokers: spanDirectory{id: b.ID(), addr: bsrv.Addr(), pub: b.Public(), rec: rec},
	})
	nsrv, err := epc.ServeNAS(agw, "127.0.0.1:0")
	if err != nil {
		bsrv.Close()
		return realDep{}, err
	}
	ues := 0
	return realDep{
		agw: agw, brokerAddr: bsrv.Addr(), telcoID: telco.IDT,
		newUE: func() (*ue.Device, ue.NASTransport, error) {
			ues++
			key, err := pki.KeyPairFromSeed(seedBytes(seed, fmt.Sprintf("ue-%d", ues)))
			if err != nil {
				return nil, nil, err
			}
			ranID := fmt.Sprintf("bench-ue-%d", ues)
			dev := ue.NewDevice(ranID, nil, &sap.UEState{
				IDU: b.RegisterUser(key.Public()), IDB: b.ID(), Key: key, BrokerPub: b.Public(),
			})
			c, err := wire.Dial(nsrv.Addr())
			if err != nil {
				return nil, nil, err
			}
			return dev, func(env []byte) ([]byte, error) {
				_, reply, err := c.Call(wire.TypeNAS, epc.EncodeNASCall(ranID, env))
				return reply, err
			}, nil
		},
		close: func() {
			nsrv.Close()
			bsrv.Close()
		},
	}, nil
}

// spanDirectory resolves the broker the way the testbed's directory does —
// one fresh connection per lookup — and wraps the client in a span.
type spanDirectory struct {
	id, addr string
	pub      pki.PublicIdentity
	rec      *atomic.Pointer[recorder]
}

func (d spanDirectory) Lookup(idB string) (epc.BrokerClient, pki.PublicIdentity, error) {
	if idB != d.id {
		return nil, pki.PublicIdentity{}, fmt.Errorf("unknown broker %q", idB)
	}
	c, err := broker.DialClient(d.addr)
	if err != nil {
		return nil, pki.PublicIdentity{}, err
	}
	return spanBroker{c, d.rec}, d.pub, nil
}

type spanBroker struct {
	c   *broker.Client
	rec *atomic.Pointer[recorder]
}

func (s spanBroker) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	defer s.rec.Load().begin("broker.auth_rtt")()
	return s.c.Authenticate(req)
}
