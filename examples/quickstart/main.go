// Quickstart: the minimum CellBricks deployment — one broker, one bTelco
// with no pre-established relationship to it, one subscriber. The UE
// attaches on demand through the secure attachment protocol, passes
// traffic, completes a verifiable billing cycle, and detaches.
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
	// A certificate authority anchors trust: brokers verify bTelco
	// certificates against it, nothing else is shared in advance. The
	// cast seeds it together with the user's single contractual
	// relationship: a broker.
	cast, err := core.New("example-ca", core.Seed(1), "broker.example", core.Seed(2), time.Time{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// A small access provider: a single certified cell. It has never
	// heard of this broker or its users; its gateway reaches the broker
	// in process.
	cell, err := cast.NewTelco("corner-cafe-cell", nil, 2.50)
	if err != nil {
		log.Fatal(err)
	}
	agw := epc.NewAGW(epc.AGWConfig{Telco: cell, Brokers: epc.StaticDirectory{
		ID: cast.Config.ID, Client: broker.Local{B: cast.Broker}, Pub: cast.BrokerPub}})
	tx := func(env []byte) ([]byte, error) { return agw.HandleNAS("alice-phone", env) }

	// Subscribe a user: the broker issues the key pair the SIM holds.
	sim, _, err := cast.NewSubscriber(core.Seed(3))
	if err != nil {
		log.Fatal(err)
	}
	dev := ue.NewDevice("alice-phone", nil, sim)
	fmt.Printf("subscribed alice: idU=%s\n", sim.IDU)

	// On-demand attach: UE -> bTelco -> broker -> back, one round trip.
	a, err := dev.AttachSAP(tx, cell.IDT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attached through %s: ip=%s qci=%d dl=%d Mbps\n",
		cell.IDT, a.IP, a.QCI, a.DLAmbrBps/1e6)

	// Traffic flows through the bTelco's user plane; both sides count it.
	bearer := agw.UserPlane().Lookup(a.IP)
	for i := 0; i < 1000; i++ {
		now := time.Duration(i) * 5 * time.Millisecond
		if bearer.Process(now, epc.Downlink, 1400) {
			dev.Meter.CountDL(1400)
		}
		if bearer.Process(now, epc.Uplink, 120) {
			dev.Meter.CountUL(120)
		}
	}
	ul, dl := dev.Meter.Snapshot()
	fmt.Printf("traffic: ul=%d dl=%d bytes\n", ul, dl)

	// Verifiable billing: independent signed reports, checked at the
	// broker.
	mismatch, err := cast.ReportCycle(agw, dev, a.SessionID, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("billing cycle: mismatch=%v, telco score=%.2f\n",
		mismatch != nil, cast.Broker.TelcoScore(cell.IDT))

	// Host-driven detach.
	if err := dev.Detach(tx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("detached — done")
}
