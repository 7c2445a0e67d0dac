package testbed

import (
	"fmt"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
	"cellbricks/internal/sap"
)

// BilledDriveResult is the outcome of a drive with the full verifiable
// billing loop running: every emulated packet is independently counted by
// the "bTelco" (at its side of the radio link) and the UE baseband (at
// delivery), both report to the broker every cycle, and the broker's
// Fig. 5 checks run on each aligned pair.
type BilledDriveResult struct {
	Sessions    int // one per bTelco attachment
	Cycles      int // aligned report pairs checked
	Mismatches  int
	UEBytes     uint64
	TelcoBytes  uint64
	Settlements []billing.Settlement
	TotalOwed   float64
}

// RunBilledDrive runs a CellBricks night drive in the emulator while the
// *real* control plane (SAP attachments against a real broker, real
// signed+sealed reports) runs alongside: the integration the paper's
// testbed demonstrates at small scale, here across dozens of provider
// switches. The bTelco-side counter sees packets the moment they are
// admitted to the radio link, the UE counts them on delivery — so packets
// in flight at a detachment produce exactly the honest discrepancy the
// loss-tolerant threshold must absorb.
func RunBilledDrive(sc Scenario, cycle time.Duration) (BilledDriveResult, error) {
	sc = sc.Defaults()
	sc.Arch = ArchCellBricks
	if cycle == 0 {
		cycle = 30 * time.Second
	}
	var res BilledDriveResult
	// The emulated data plane, with its handovers scheduled.
	w := newWorld(sc, nil, "bd-ue")
	sim, conn := w.Sim, w.Conn

	// The real control-plane cast. The verifier slack absorbs bytes in
	// flight at a detachment: BDP + bottleneck queue of the night path
	// (~0.8 MB at ~15 Mbps with a 600 ms AQM budget).
	cast, err := core.New("drive-ca", core.Seed(71), "broker.drive", core.Seed(72), time.Time{}, func(c *broker.Config) {
		c.VerifierConfig.SlackBytes = 1 << 20
	})
	if err != nil {
		return res, err
	}
	ueState, meter, err := cast.NewSubscriber(core.Seed(73))
	if err != nil {
		return res, err
	}

	// Per-session state.
	type session struct {
		telco      *sap.TelcoState
		uref       string
		seq        uint32
		started    time.Duration
		telcoBytes uint64
		// Radio-layer packet counters: the RLC sequence-number view the
		// baseband uses to attribute missing packets as loss.
		admitted  uint64
		delivered uint64
		lossSeen  uint64
	}

	// The two counters of §4.3 come off the connection's radio tallies,
	// read once per report. The bTelco counts data segments admitted toward
	// the UE (at payload size, as a PGW byte counter sees the SDF); the UE
	// baseband counts the data segments it received, retransmitted payloads
	// included (PDCP counters), not the transport's deduplicated stream.
	// The delta is exactly the honest discrepancy of §4.3: bytes the bTelco
	// carried that never reached the UE (radio loss, in flight at
	// detachment).
	var cur *session
	var readAdm, readArr mptcp.Tally
	drain := func() {
		adm, arr := conn.Radio()
		dAdm, dArr := adm.Sub(readAdm), arr.Sub(readArr)
		readAdm, readArr = adm, arr
		if cur == nil {
			return // settled and not yet re-attached: no session's bytes
		}
		cur.telcoBytes += dAdm.Bytes
		cur.admitted += dAdm.Packets
		cur.delivered += dArr.Packets
		res.TelcoBytes += dAdm.Bytes
		res.UEBytes += dArr.Bytes
		meter.CountDLBatch(dArr.Bytes, dArr.Packets)
	}

	attach := func(idx int) error {
		telco, err := cast.NewTelco(fmt.Sprintf("drive-btelco-%d", idx), nil, 2.0)
		if err != nil {
			return err
		}
		grant, sealer, _, err := attach(cast, ueState, telco)
		if err != nil {
			return err
		}
		drain()
		meter.StartSession()
		meter.BindSession(grant.URef, sealer)
		cur = &session{telco: telco, uref: grant.URef, started: sim.Now()}
		res.Sessions++
		return nil
	}
	if err := attach(0); err != nil {
		return res, err
	}

	// Reporting cycle: both sides report, broker checks.
	report := func() error {
		if cur == nil {
			return nil
		}
		drain()
		rel := sim.Now() - cur.started
		cur.seq++
		env, err := telcoReport(cast, cur.telco, cur.uref, cur.seq, rel, cur.telcoBytes)
		if err != nil {
			return err
		}
		if _, err := cast.Broker.HandleReport(env); err != nil {
			return err
		}
		// Radio losses appear to the baseband as RLC sequence gaps; feed
		// the delta so the UE report carries the loss rate the Fig. 5
		// threshold scales with.
		if gap := cur.admitted - cur.delivered; gap > cur.lossSeen {
			meter.CountDLLoss(int(gap - cur.lossSeen))
			cur.lossSeen = gap
		}
		ueEnv, err := meter.Report(rel)
		if err != nil {
			return err
		}
		m, err := cast.Broker.HandleReport(ueEnv)
		if err != nil {
			return err
		}
		res.Cycles++
		if m != nil {
			res.Mismatches++
		}
		return nil
	}

	// Settle the finished session; it ends here, so a report tick before
	// the next attach has nothing to report.
	var rollErr error
	settle := func() {
		if cur == nil {
			return
		}
		if err := report(); err != nil && rollErr == nil {
			rollErr = err
		}
		st, err := cast.Broker.SettleSession(cur.uref)
		if err == nil {
			res.Settlements = append(res.Settlements, st)
			res.TotalOwed += st.Amount
		}
		cur = nil
	}

	// A handover settles the session before the address dies; the next
	// bTelco's attach, named after the path index the handover reached,
	// comes before the new address is usable.
	w.lost = func() {
		if rollErr == nil {
			settle()
		}
		conn.AddrInvalidated()
	}
	w.reattach = func(newIP string) {
		i := w.path.idx
		sim.After(sc.AttachLatency, func() {
			if rollErr != nil {
				return
			}
			if err := attach(i); err != nil {
				rollErr = err
				return
			}
			conn.AddrAvailable(newIP)
		})
	}

	// Periodic reporting and a backlogged sender.
	var tick, topUp *netem.Timer
	tick = sim.NewTimer(func() {
		if sim.Now() >= sc.Duration || rollErr != nil {
			return
		}
		if err := report(); err != nil && rollErr == nil {
			rollErr = err
		}
		tick.Reset(cycle)
	})
	tick.Reset(cycle)
	fill := func() {
		if sim.Now() >= sc.Duration {
			return
		}
		conn.Write(32 << 20)
		topUp.Reset(time.Second)
	}
	topUp = sim.NewTimer(fill)
	fill()

	sim.RunUntil(sc.Duration)
	settle()
	return res, rollErr
}
