// Multibroker: one bTelco cell simultaneously serving subscribers of two
// competing brokers ("bTelcos are inherently multi-tenant ... a single
// bTelco cell site can support multiple brokers"), with independent
// verifiable-billing settlement toward each.
package main

import (
	"fmt"
	"log"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/pki"
	"cellbricks/internal/ue"
)

// directory is the cell's way to every broker it serves users of.
type directory []*core.Cast

func (d directory) Lookup(idB string) (epc.BrokerClient, pki.PublicIdentity, error) {
	for _, c := range d {
		if c.Config.ID == idB {
			return broker.Local{B: c.Broker}, c.BrokerPub, nil
		}
	}
	return nil, pki.PublicIdentity{}, fmt.Errorf("unknown broker %q", idB)
}

func main() {
	// Two competing brokers under one certificate authority (one CA seed).
	acme, err := core.New("multibroker-ca", core.Seed(1), "broker.acme", core.Seed(2), time.Time{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	globex, err := core.New("multibroker-ca", core.Seed(1), "broker.globex", core.Seed(3), time.Time{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// One neutral-host cell willing to serve anyone whose broker
	// authorizes them; it bills at 2.00/GB.
	telco, err := acme.NewTelco("stadium-cell", nil, 2.00)
	if err != nil {
		log.Fatal(err)
	}
	cell := epc.NewAGW(epc.AGWConfig{Telco: telco, Brokers: directory{acme, globex}})

	// One subscriber per broker, both attached to the same cell.
	subscribe := func(c *core.Cast, name string, seed byte) (*ue.Device, *ue.Attachment) {
		st, _, err := c.NewSubscriber(core.Seed(seed))
		if err != nil {
			log.Fatal(err)
		}
		dev := ue.NewDevice(name, nil, st)
		att, err := dev.AttachSAP(func(env []byte) ([]byte, error) { return cell.HandleNAS(name, env) }, telco.IDT)
		if err != nil {
			log.Fatal(err)
		}
		return dev, att
	}
	alice, aAtt := subscribe(acme, "alice", 4)
	bob, bAtt := subscribe(globex, "bob", 5)
	fmt.Printf("stadium-cell serving %d sessions from 2 different brokers\n", cell.ActiveSessions())

	// Alice downloads 10x what Bob does.
	pass := func(dev *ue.Device, ip string, packets int) {
		bearer := cell.UserPlane().Lookup(ip)
		for i := 0; i < packets; i++ {
			now := time.Duration(i) * 2 * time.Millisecond
			if bearer.Process(now, epc.Downlink, 1400) {
				dev.Meter.CountDL(1400)
			}
		}
	}
	pass(alice, aAtt.IP, 5000)
	pass(bob, bAtt.IP, 500)

	// Billing cycles to each broker independently.
	if _, err := acme.ReportCycle(cell, alice, aAtt.SessionID, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	if _, err := globex.ReportCycle(cell, bob, bAtt.SessionID, 30*time.Second); err != nil {
		log.Fatal(err)
	}

	// Settle: each broker pays the bTelco for exactly its own user's
	// verified usage.
	aliceRef := cell.Session(aAtt.SessionID).URef
	bobRef := cell.Session(bAtt.SessionID).URef
	sA, err := acme.Broker.SettleSession(aliceRef)
	if err != nil {
		log.Fatal(err)
	}
	sB, err := globex.Broker.SettleSession(bobRef)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acme  -> stadium-cell: %8d verified bytes, %.6f units (disputed: %v)\n", sA.VerifiedBytes, sA.Amount, sA.Disputed)
	fmt.Printf("globex-> stadium-cell: %8d verified bytes, %.6f units (disputed: %v)\n", sB.VerifiedBytes, sB.Amount, sB.Disputed)
	if sA.VerifiedBytes < 8*sB.VerifiedBytes {
		log.Fatalf("settlement does not reflect usage split")
	}
	fmt.Println("settlement reflects per-broker usage — multi-tenancy works")
}
