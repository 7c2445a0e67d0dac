// Dualstack: the incremental-deployment story of §3.1. One device carries
// both SIMs states — the legacy shared key K and the CellBricks key pair —
// "in a dual-stack mode". Against a legacy MNO core it authenticates with
// EPS-AKA; against a CellBricks-enabled bTelco (reached through a stock
// eNodeB that relays the new NAS messages untouched) it runs SAP. Neither
// network needed to know about the other.
package main

import (
	"fmt"
	"log"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/ran"
	"cellbricks/internal/ue"
)

func main() {
	cast, err := core.New("dualstack-ca", core.Seed(1), "broker.newco", core.Seed(2), time.Time{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The legacy MNO: subscriber DB + AGW, no SAP support at all.
	sdb := epc.NewSubscriberDB()
	legacyCore := epc.NewAGW(epc.AGWConfig{Subscribers: directSDB{sdb}})

	// A new CellBricks bTelco behind an unmodified eNodeB.
	telco, err := cast.NewTelco("newco-cell", nil, 1.25)
	if err != nil {
		log.Fatal(err)
	}
	cbCore := epc.NewAGW(epc.AGWConfig{Telco: telco, Brokers: epc.StaticDirectory{
		ID: cast.Config.ID, Client: broker.Local{B: cast.Broker}, Pub: cast.BrokerPub}})
	enb := ran.NewENB(ran.Cell{ID: "enb-1", TelcoID: "newco-cell", RRCSetupDelay: 130 * time.Millisecond}, cbCore.HandleNAS)

	// One device, both credentials.
	k, err := aka.NewK()
	if err != nil {
		log.Fatal(err)
	}
	sdb.Provision("001015550009999", k, epc.SubscriberProfile{APN: "internet"})
	sim, _, err := cast.NewSubscriber(core.Seed(3))
	if err != nil {
		log.Fatal(err)
	}
	dev := ue.NewDevice("dual-phone", &aka.SIM{K: k, IMSI: "001015550009999"}, sim)

	// In MNO coverage: AttachAuto tries SAP, the legacy core can't serve
	// it, the device falls back to EPS-AKA.
	legacyTx := func(env []byte) ([]byte, error) { return legacyCore.HandleNAS("dual-phone", env) }
	a1, err := dev.AttachAuto(legacyTx, "newco-cell")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under the legacy MNO:   attached via %s (ip %s)\n",
		kind(legacyCore.Session(a1.SessionID)), a1.IP)
	if err := dev.Detach(legacyTx); err != nil {
		log.Fatal(err)
	}

	// Walking into newco-cell coverage: RRC setup on the stock eNodeB,
	// then the same AttachAuto prefers SAP.
	if _, err := enb.Connect("dual-phone"); err != nil {
		log.Fatal(err)
	}
	cbTx := func(env []byte) ([]byte, error) { return enb.ForwardNAS("dual-phone", env) }
	a2, err := dev.AttachAuto(cbTx, "newco-cell")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under the CB bTelco:    attached via %s (ip %s) through an unmodified eNodeB\n",
		kind(cbCore.Session(a2.SessionID)), a2.IP)
	if err := dev.Detach(cbTx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("one device, both worlds — incremental deployment works")
}

func kind(s *epc.Session) string {
	if s == nil {
		return "?"
	}
	if s.Kind == epc.KindSAP {
		return "SAP (CellBricks)"
	}
	return "EPS-AKA (legacy)"
}

// directSDB adapts the in-process SubscriberDB to the AGW's client
// interface.
type directSDB struct{ db *epc.SubscriberDB }

func (d directSDB) AuthInfo(imsi string) (aka.Vector, error) { return d.db.AuthInfo(imsi) }
func (d directSDB) UpdateLocation(imsi string) (epc.SubscriberProfile, error) {
	return d.db.UpdateLocation(imsi)
}
