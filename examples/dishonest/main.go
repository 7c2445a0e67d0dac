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

	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/ue"
)

func main() {
	cast, err := core.New("dishonest-ca", core.Seed(1), "broker.watchful", core.Seed(2), time.Time{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	telco, err := cast.NewTelco("shady-cell", nil, 0.99) // suspiciously cheap
	if err != nil {
		log.Fatal(err)
	}
	cheat := epc.NewAGW(epc.AGWConfig{Telco: telco, Brokers: epc.StaticDirectory{
		ID: cast.Config.ID, Client: broker.Local{B: cast.Broker}, Pub: cast.BrokerPub}})
	subscribe := func(name string, seed byte) (*ue.Device, ue.NASTransport) {
		st, _, err := cast.NewSubscriber(core.Seed(seed))
		if err != nil {
			log.Fatal(err)
		}
		return ue.NewDevice(name, nil, st), func(env []byte) ([]byte, error) { return cheat.HandleNAS(name, env) }
	}

	sub, tx := subscribe("victim-ue", 3)
	att, err := sub.AttachSAP(tx, telco.IDT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attached through shady-cell; initial reputation %.2f\n",
		cast.Broker.TelcoScore("shady-cell"))

	// Several reporting cycles: the cell counts 3x the real traffic.
	bearer := cheat.UserPlane().Lookup(att.IP)
	for cycle := 1; cycle <= 12; cycle++ {
		for i := 0; i < 300; i++ {
			now := time.Duration(cycle*1000+i) * time.Millisecond
			// Real packet, counted by the UE baseband...
			if bearer.Process(now, epc.Downlink, 1200) {
				sub.Meter.CountDL(1200)
			}
			// ...plus two phantom packets only the cell's counter sees.
			bearer.Process(now, epc.Downlink, 1200)
			bearer.Process(now, epc.Downlink, 1200)
		}
		m, err := cast.ReportCycle(cheat, sub, att.SessionID, time.Duration(cycle)*30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		flagged := "ok"
		if m != nil {
			flagged = fmt.Sprintf("MISMATCH (telco %dB vs UE %dB, degree %.2f)", m.TelcoBytes, m.UEBytes, m.Degree)
		}
		fmt.Printf("cycle %2d: %s; reputation %.3f\n", cycle, flagged, cast.Broker.TelcoScore("shady-cell"))
	}

	// The reputation gate now rejects new attachments through this cell.
	sub2, tx2 := subscribe("second-ue", 4)
	if _, err := sub2.AttachSAP(tx2, telco.IDT); err == nil {
		log.Fatal("broker still authorizes the cheating bTelco")
	} else {
		fmt.Printf("\nnew attach denied: %v\n", err)
	}

	// The session's settlement is conservative: disputed cycles pay out
	// on the UE-verified bytes, not the inflated claim.
	uref := cheat.Session(att.SessionID).URef
	st, err := cast.Broker.SettleSession(uref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("settlement: %d verified bytes (disputed: %v) — inflation did not pay\n",
		st.VerifiedBytes, st.Disputed)
}
