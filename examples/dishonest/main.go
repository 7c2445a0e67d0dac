// Dishonest: the verifiable-billing threat model in action (§4.3). A
// bTelco inflates its downlink usage reports 3x. The broker's Fig. 5
// discrepancy check flags every reporting cycle, the bTelco's reputation
// score collapses, and the broker's admission policy starts denying
// attachments through it — the "dishonest but not malicious" economics the
// paper describes.
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
	eco, err := core.NewEcosystem("dishonest-ca")
	if err != nil {
		log.Fatal(err)
	}
	brk, err := eco.NewBroker("broker.watchful")
	if err != nil {
		log.Fatal(err)
	}
	dir := core.NewDirectory(brk)
	cheat, err := eco.NewBTelco(core.BTelcoConfig{
		ID:      "shady-cell",
		Brokers: dir,
		Terms:   sap.ServiceTerms{PricePerGB: 0.99}, // suspiciously cheap
	})
	if err != nil {
		log.Fatal(err)
	}

	sub, err := brk.Subscribe("victim-ue")
	if err != nil {
		log.Fatal(err)
	}
	att, err := sub.Attach(cheat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attached through shady-cell; initial reputation %.2f\n",
		brk.D.TelcoScore("shady-cell"))

	// Several reporting cycles: the cell counts 3x the real traffic.
	bearer := cheat.AGW.UserPlane().Lookup(att.IP)
	for cycle := 1; cycle <= 12; cycle++ {
		for i := 0; i < 300; i++ {
			now := time.Duration(cycle*1000+i) * time.Millisecond
			// Real packet, counted by the UE baseband...
			if bearer.Process(now, epc.Downlink, 1200) {
				sub.Device.Meter.CountDL(1200)
			}
			// ...plus two phantom packets only the cell's counter sees.
			bearer.Process(now, epc.Downlink, 1200)
			bearer.Process(now, epc.Downlink, 1200)
		}
		m, err := core.ReportCycle(brk, cheat, sub, att.SessionID, time.Duration(cycle)*30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		flagged := "ok"
		if m != nil {
			flagged = fmt.Sprintf("MISMATCH (telco %dB vs UE %dB, degree %.2f)", m.TelcoBytes, m.UEBytes, m.Degree)
		}
		fmt.Printf("cycle %2d: %s; reputation %.3f\n", cycle, flagged, brk.D.TelcoScore("shady-cell"))
	}

	// The reputation gate now rejects new attachments through this cell.
	sub2, err := brk.Subscribe("second-ue")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sub2.Attach(cheat); err == nil {
		log.Fatal("broker still authorizes the cheating bTelco")
	} else {
		fmt.Printf("\nnew attach denied: %v\n", err)
	}

	// The session's settlement is conservative: disputed cycles pay out
	// on the UE-verified bytes, not the inflated claim.
	uref := cheat.AGW.Session(att.SessionID).URef
	st, err := brk.D.SettleSession(uref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("settlement: %d verified bytes (disputed: %v) — inflation did not pay\n",
		st.VerifiedBytes, st.Disputed)
}
