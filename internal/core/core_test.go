package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/epc"
	"cellbricks/internal/obs"
	"cellbricks/internal/pki"
	"cellbricks/internal/ran"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

func newCast(t *testing.T, caSeed, brokerSeed byte, brokerID string, tune func(*broker.Config)) *Cast {
	t.Helper()
	c, err := New(fmt.Sprintf("ca-%d", caSeed), Seed(caSeed), brokerID, Seed(brokerSeed), time.Time{}, tune)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// directory is the in-process broker directory of a cell that serves the
// users of several casts' brokers.
type directory []*Cast

func (d directory) Lookup(idB string) (epc.BrokerClient, pki.PublicIdentity, error) {
	for _, c := range d {
		if c.Config.ID == idB {
			return broker.Local{B: c.Broker}, c.BrokerPub, nil
		}
	}
	return nil, pki.PublicIdentity{}, fmt.Errorf("unknown broker %q", idB)
}

// cell mints a bTelco of c and starts its AGW behind dir.
func cell(t *testing.T, c *Cast, id string, price float64, dir epc.BrokerDirectory) (*sap.TelcoState, *epc.AGW) {
	t.Helper()
	telco, err := c.NewTelco(id, nil, price)
	if err != nil {
		t.Fatal(err)
	}
	return telco, epc.NewAGW(epc.AGWConfig{Telco: telco, Brokers: dir})
}

func subscribe(t *testing.T, c *Cast, ranID string) *ue.Device {
	t.Helper()
	st, _, err := c.NewSubscriber(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ue.NewDevice(ranID, nil, st)
}

func via(agw *epc.AGW, ranID string) ue.NASTransport {
	return func(env []byte) ([]byte, error) { return agw.HandleNAS(ranID, env) }
}

// buildEco wires one cast with two bTelcos.
func buildEco(t *testing.T) (*Cast, *epc.AGW, *epc.AGW) {
	t.Helper()
	c := newCast(t, 1, 2, "broker.test", nil)
	_, a1 := cell(t, c, "coffee-shop-cell", 3, directory{c})
	_, a2 := cell(t, c, "mall-cell", 1, directory{c})
	return c, a1, a2
}

func TestSubscribeAttachDetach(t *testing.T) {
	c, agw, _ := buildEco(t)
	dev := subscribe(t, c, "ue-1")
	a, err := dev.AttachSAP(via(agw, "ue-1"), "coffee-shop-cell")
	if err != nil {
		t.Fatal(err)
	}
	if a.IP == "" {
		t.Fatal("no IP")
	}
	if err := dev.Detach(via(agw, "ue-1")); err != nil {
		t.Fatal(err)
	}
}

func TestHostDrivenMobilityAcrossBTelcos(t *testing.T) {
	c, t1, t2 := buildEco(t)
	dev := subscribe(t, c, "ue-2")
	a1, err := dev.AttachSAP(via(t1, "ue-2"), "coffee-shop-cell")
	if err != nil {
		t.Fatal(err)
	}
	// Host-driven handover: detach from T1, independently attach to T2 —
	// no coordination between the providers.
	if err := dev.Detach(via(t1, "ue-2")); err != nil {
		t.Fatal(err)
	}
	a2, err := dev.AttachSAP(via(t2, "ue-2"), "mall-cell")
	if err != nil {
		t.Fatal(err)
	}
	if a2.IP == a1.IP && t1 == t2 {
		t.Fatal("no fresh attachment state")
	}
	if t1.ActiveSessions() != 0 || t2.ActiveSessions() != 1 {
		t.Fatalf("sessions: t1=%d t2=%d", t1.ActiveSessions(), t2.ActiveSessions())
	}
}

func TestHonestBillingCycle(t *testing.T) {
	c, agw, _ := buildEco(t)
	dev := subscribe(t, c, "ue-3")
	a, err := dev.AttachSAP(via(agw, "ue-3"), "coffee-shop-cell")
	if err != nil {
		t.Fatal(err)
	}
	bearer := agw.UserPlane().Lookup(a.IP)
	for i := 0; i < 200; i++ {
		if bearer.Process(time.Duration(i)*5*time.Millisecond, epc.Downlink, 1400) {
			dev.Meter.CountDL(1400)
		}
	}
	m, err := c.ReportCycle(agw, dev, a.SessionID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("honest cycle flagged: %+v", m)
	}
	if s := c.Broker.TelcoScore("coffee-shop-cell"); s < 0.99 {
		t.Fatalf("score %.2f", s)
	}
}

func TestMultiBrokerSingleBTelco(t *testing.T) {
	b1 := newCast(t, 1, 2, "broker-a", nil)
	b2 := newCast(t, 1, 3, "broker-b", nil) // same CA seed: one trust root
	_, agw := cell(t, b1, "shared-cell", 1, directory{b1, b2})
	// One bTelco serves users of two brokers simultaneously
	// ("bTelcos are inherently multi-tenant").
	for i, c := range []*Cast{b1, b2} {
		ranID := fmt.Sprintf("ue-%d", i)
		if _, err := subscribe(t, c, ranID).AttachSAP(via(agw, ranID), "shared-cell"); err != nil {
			t.Fatal(err)
		}
	}
	if agw.ActiveSessions() != 2 {
		t.Fatalf("sessions = %d", agw.ActiveSessions())
	}
}

func TestUnknownBrokerRejected(t *testing.T) {
	lone := newCast(t, 1, 2, "broker-lone", nil)
	_, agw := cell(t, lone, "cell-x", 1, directory{}) // the bTelco knows no brokers
	_, err := subscribe(t, lone, "ue-x").AttachSAP(via(agw, "ue-x"), "cell-x")
	if err == nil || !strings.Contains(err.Error(), "unknown broker") {
		t.Fatalf("err = %v", err)
	}
}

func TestForeignCAUntrusted(t *testing.T) {
	a := newCast(t, 1, 2, "broker.a", nil) // trusts only CA 1
	b := newCast(t, 4, 5, "broker.b", nil)
	// bTelco certified by a CA the broker does not trust.
	_, agw := cell(t, b, "rogue-cell", 1, directory{a})
	if _, err := subscribe(t, a, "ue-y").AttachSAP(via(agw, "ue-y"), "rogue-cell"); err == nil {
		t.Fatal("attach through untrusted-CA bTelco succeeded")
	}
}

func TestAttachThroughENB(t *testing.T) {
	c, agw, _ := buildEco(t)
	enb := ran.NewENB(ran.Cell{ID: "cell-1", TelcoID: "coffee-shop-cell", RRCSetupDelay: 130 * time.Millisecond}, agw.HandleNAS)
	dev := subscribe(t, c, "enb-ue")
	tx := func(env []byte) ([]byte, error) { return enb.ForwardNAS("enb-ue", env) }
	// Without an RRC connection the eNB refuses to relay NAS.
	if _, err := dev.AttachSAP(tx, "coffee-shop-cell"); err == nil {
		t.Fatal("NAS relayed without RRC connection")
	}
	if _, err := enb.Connect("enb-ue"); err != nil {
		t.Fatal(err)
	}
	a, err := dev.AttachSAP(tx, "coffee-shop-cell")
	if err != nil {
		t.Fatal(err)
	}
	if a.IP == "" {
		t.Fatal("no IP through eNB path")
	}
	if _, err := enb.Connect("enb-ue"); !errors.Is(err, ran.ErrAlreadyActive) {
		t.Fatalf("the attached UE's RRC connection is gone: %v", err)
	}
}

func TestBaselineX2Handover(t *testing.T) {
	// The network-driven handover CellBricks removes: within one
	// operator, the session (IP, bearers, security context) survives a
	// move between eNodeBs via core rebinding.
	c := newCast(t, 1, 2, "broker.x2", nil)
	_, agw := cell(t, c, "big-mno", 1, directory{c})
	dev := subscribe(t, c, "x2-ue")
	a, err := dev.AttachSAP(via(agw, "x2-ue"), "big-mno")
	if err != nil {
		t.Fatal(err)
	}
	// X2 handover to a second eNB: new RAN binding, same everything else.
	if err := agw.RebindRAN(a.SessionID, "x2-ue@enb2"); err != nil {
		t.Fatal(err)
	}
	sess := agw.Session(a.SessionID)
	if sess.RANID != "x2-ue@enb2" || sess.IP != a.IP {
		t.Fatalf("session after rebind: %+v", sess)
	}
	// The security context carries over: a protected detach through the
	// new binding works (the UE's device still signs under the same
	// context, only the transport path changed).
	dev.RANID = "x2-ue@enb2"
	if err := dev.Detach(via(agw, "x2-ue@enb2")); err != nil {
		t.Fatal(err)
	}
	// Rebinding an inactive session fails.
	if err := agw.RebindRAN(a.SessionID, "x2-ue@enb3"); err == nil {
		t.Fatal("rebind of detached session accepted")
	}
}

// The tune hook shapes the broker before it is built: a price cap set there
// denies the expensive cell.
func TestTuneCapsPrice(t *testing.T) {
	c := newCast(t, 1, 2, "broker.custom", func(cfg *broker.Config) { cfg.MaxPricePerGB = 3.0 })
	_, agw := cell(t, c, "cfg-cell", 9.0, directory{c})
	if _, err := subscribe(t, c, "cfg-ue").AttachSAP(via(agw, "cfg-ue"), "cfg-cell"); err == nil {
		t.Fatal("price-capped broker granted an expensive cell")
	}
}

func TestBTelcoConfigValidation(t *testing.T) {
	if _, err := newCast(t, 1, 2, "broker.v", nil).NewTelco("", nil, 1); err == nil {
		t.Fatal("bTelco without ID accepted")
	}
}

// An AGW that reaches its broker in process redeems its MAC-mode grants
// like one behind broker.Client: after first contact (signed, nothing to
// receipt), the 256th MAC-mode grant makes a receipt due and the same
// attach redeems it, so 257 of them leave one receipt and one grant owed.
func TestInProcessAGWRedeemsReceipts(t *testing.T) {
	c := newCast(t, 1, 2, "broker.receipts", nil)
	telco, agw := cell(t, c, "receipt-cell", 1, directory{c})
	dev := subscribe(t, c, "receipt-ue")
	tx := via(agw, "receipt-ue")
	signed := func() float64 { return obs.Default().Snapshot()["broker_receipts_signed_total"] }
	before := signed()
	for i := 0; i < 1+257; i++ {
		if _, err := dev.AttachSAP(tx, "receipt-cell"); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		if err := dev.Detach(tx); err != nil {
			t.Fatalf("detach %d: %v", i, err)
		}
	}
	if got := signed() - before; got != 1 {
		t.Fatalf("broker_receipts_signed_total moved by %v, want 1", got)
	}
	if telco.ReceiptDue(c.Config.ID) {
		t.Fatal("a receipt is still due")
	}
	if _, owed := telco.Receipts(c.Config.ID); owed != 1 {
		t.Fatalf("%d grants unreceipted, want 1", owed)
	}
}
