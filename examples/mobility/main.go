// Mobility: the paper's extreme scenario — a drive through a corridor
// where every tower is its own single-tower bTelco, so every handover is
// a provider switch. The control plane performs a real SAP detach/attach
// against each provider, while in the data-plane emulation an MPTCP
// download survives every resulting IP change.
//
// Two layers run side by side:
//
//   - Control plane (real protocol objects): ran.Mobile decides handovers
//     from signal strength; at each one the UE detaches and runs SAP with
//     the next bTelco — a different operator every time.
//   - Data plane (netem emulation): the download's address is invalidated
//     and re-established with the measured attach latency, showing the
//     throughput dip + recovery of Fig. 8.
package main

import (
	"fmt"
	"log"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/mobility"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
	"cellbricks/internal/ran"
	"cellbricks/internal/ue"
)

func main() {
	cast, err := core.New("mobility-ca", core.Seed(1), "broker.mobility", core.Seed(2), time.Time{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	brokers := epc.StaticDirectory{ID: cast.Config.ID, Client: broker.Local{B: cast.Broker}, Pub: cast.BrokerPub}

	// Ten towers, ten independent bTelcos.
	deployment := ran.LinearDeployment(10, 800, func(i int) string {
		return fmt.Sprintf("btelco-%02d", i)
	})
	cells := make(map[string]*epc.AGW)
	for _, c := range deployment.Cells {
		if _, ok := cells[c.TelcoID]; ok {
			continue
		}
		t, err := cast.NewTelco(c.TelcoID, nil, 0)
		if err != nil {
			log.Fatal(err)
		}
		cells[c.TelcoID] = epc.NewAGW(epc.AGWConfig{Telco: t, Brokers: brokers})
	}

	st, _, err := cast.NewSubscriber(core.Seed(3))
	if err != nil {
		log.Fatal(err)
	}
	dev := ue.NewDevice("drive-ue", nil, st)
	via := func(agw *epc.AGW) ue.NASTransport {
		return func(env []byte) ([]byte, error) { return agw.HandleNAS(dev.RANID, env) }
	}

	// Control plane: drive at 20 m/s and re-attach at every handover.
	mobile := ran.NewMobile(deployment, 20)
	serving := mobile.Serving().TelcoID
	if _, err := dev.AttachSAP(via(cells[serving]), serving); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=0s attached to %s\n", serving)

	attachLatencies := []time.Duration{}
	tick := 100 * time.Millisecond
	for now := time.Duration(0); now < 6*time.Minute; now += tick {
		ev := mobile.Advance(now, tick)
		if ev == nil {
			continue
		}
		// Host-driven handover: detach, then SAP attach to the new
		// provider. No coordination between the two bTelcos.
		start := time.Now()
		if err := dev.Detach(via(cells[serving])); err != nil {
			log.Fatal(err)
		}
		serving = ev.To.TelcoID
		if _, err := dev.AttachSAP(via(cells[serving]), serving); err != nil {
			log.Fatal(err)
		}
		attachLatencies = append(attachLatencies, time.Since(start))
		fmt.Printf("t=%-5v handover %s -> %s (crossed provider: %v)\n",
			ev.At.Truncate(time.Second), ev.From.TelcoID, ev.To.TelcoID, ev.CrossesTelco)
	}
	var sum time.Duration
	for _, d := range attachLatencies {
		sum += d
	}
	fmt.Printf("\n%d provider switches; mean SAP detach+attach wall time %v\n",
		len(attachLatencies), (sum / time.Duration(len(attachLatencies))).Round(time.Microsecond))

	// Data plane: the same drive as a netem emulation with an MPTCP
	// download surviving each IP change.
	sim := netem.NewSim(42)
	op := mobility.NewOperator(43)
	link := op.CellularLink(mobility.Suburb, true)
	sim.Connect("server", "ue-0", link)
	conn := mptcp.NewConn(sim, "server", "ue-0", mptcp.DefaultConfig())
	subflows := 0
	conn.OnSubflow = func(uint32) { subflows++ }

	idx := 0
	for _, at := range mobility.Suburb.Handovers(sim.Rand(), true, 6*time.Minute) {
		at := at
		sim.At(at, func() {
			conn.AddrInvalidated()
			sim.Disconnect("server", fmt.Sprintf("ue-%d", idx))
			idx++
			newIP := fmt.Sprintf("ue-%d", idx)
			sim.Connect("server", newIP, op.CellularLink(mobility.Suburb, true))
			sim.After(32*time.Millisecond, func() { conn.AddrAvailable(newIP) })
		})
	}
	res := apps.NewIperf(sim, conn, time.Second).Run(6 * time.Minute)
	fmt.Printf("\nemulated 6-minute night drive: avg %.2f Mbps over %d IP changes (%d re-subflows), connection alive: %v\n",
		res.AvgBps/1e6, idx, subflows, !conn.Closed())
}
