// Multibroker: one bTelco cell simultaneously serving subscribers of two
// competing brokers ("bTelcos are inherently multi-tenant ... a single
// bTelco cell site can support multiple brokers"), with independent
// verifiable-billing settlement toward each.
package main

import (
	"fmt"
	"log"
	"time"

	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/sap"
)

func main() {
	eco, err := core.NewEcosystem("multibroker-ca")
	if err != nil {
		log.Fatal(err)
	}

	// Two competing brokers.
	acme, err := eco.NewBroker("broker.acme")
	if err != nil {
		log.Fatal(err)
	}
	globex, err := eco.NewBroker("broker.globex")
	if err != nil {
		log.Fatal(err)
	}
	dir := core.NewDirectory(acme, globex)

	// One neutral-host cell willing to serve anyone whose broker
	// authorizes them; it bills at 2.00/GB.
	cell, err := eco.NewBTelco(core.BTelcoConfig{
		ID:      "stadium-cell",
		Brokers: dir,
		Terms:   sap.ServiceTerms{PricePerGB: 2.00},
	})
	if err != nil {
		log.Fatal(err)
	}

	// One subscriber per broker, both attached to the same cell.
	alice, err := acme.Subscribe("alice")
	if err != nil {
		log.Fatal(err)
	}
	bob, err := globex.Subscribe("bob")
	if err != nil {
		log.Fatal(err)
	}
	aAtt, err := alice.Attach(cell)
	if err != nil {
		log.Fatal(err)
	}
	bAtt, err := bob.Attach(cell)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stadium-cell serving %d sessions from 2 different brokers\n", cell.AGW.ActiveSessions())

	// Alice downloads 10x what Bob does.
	pass := func(att *core.Subscriber, ip string, packets int) {
		bearer := cell.AGW.UserPlane().Lookup(ip)
		for i := 0; i < packets; i++ {
			now := time.Duration(i) * 2 * time.Millisecond
			if bearer.Process(now, epc.Downlink, 1400) {
				att.Device.Meter.CountDL(1400)
			}
		}
	}
	pass(alice, aAtt.IP, 5000)
	pass(bob, bAtt.IP, 500)

	// Billing cycles to each broker independently.
	if _, err := core.ReportCycle(acme, cell, alice, aAtt.SessionID, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	if _, err := core.ReportCycle(globex, cell, bob, bAtt.SessionID, 30*time.Second); err != nil {
		log.Fatal(err)
	}

	// Settle: each broker pays the bTelco for exactly its own user's
	// verified usage.
	aliceRef := cell.AGW.Session(aAtt.SessionID).URef
	bobRef := cell.AGW.Session(bAtt.SessionID).URef
	sA, err := acme.D.SettleSession(aliceRef)
	if err != nil {
		log.Fatal(err)
	}
	sB, err := globex.D.SettleSession(bobRef)
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
