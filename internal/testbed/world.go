package testbed

import (
	"fmt"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/mobility"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
	"cellbricks/internal/ran"
)

// Scenario configures one wide-area emulation run (§6.2): a route, time of
// day, architecture, and the CellBricks parameters under study.
type Scenario struct {
	Route mobility.Route
	Night bool
	Arch  Arch
	// AttachLatency is d: the detach-to-new-address gap (default
	// 31.68 ms, the us-west prototype measurement, as in the paper).
	AttachLatency time.Duration
	// MPTCPWait is the address-worker wait (default 500 ms; the paper's
	// "modified" runs set 0).
	MPTCPWait time.Duration
	// MNOOutage is the baseline's intra-provider handover interruption
	// (default 40 ms: LTE break-before-make data-plane gap).
	MNOOutage time.Duration
	// Protocol selects the host transport for CellBricks runs
	// (default MPTCP; ProtoQUIC for connection-ID migration).
	Protocol mptcp.Protocol
	// SoftHandover performs make-before-break migrations: the new
	// attachment completes (and the new subflow joins) before the old
	// radio link drops — the soft-handover variant the paper defers to
	// future work, here as an ablation.
	SoftHandover bool
	// BrokerDownAt/BrokerDownFor inject a broker outage window: SAP
	// attachments cannot complete inside it, so a handover that lands in
	// the window leaves the UE address-less until the broker returns.
	// CellBricks concentrates availability risk on the broker (§3); this
	// is the failure-injection knob that quantifies it.
	BrokerDownAt  time.Duration
	BrokerDownFor time.Duration
	Seed          int64
	Duration      time.Duration
}

// attachLatency is d, the detach-to-new-address gap of a CellBricks
// re-attach: the paper's measured us-west-1 attachment latency.
const attachLatency = 31680 * time.Microsecond

// Defaults fills zero fields with the paper's parameters.
func (sc Scenario) Defaults() Scenario {
	if sc.AttachLatency == 0 {
		sc.AttachLatency = attachLatency
	}
	if sc.MPTCPWait == 0 && sc.Arch == ArchCellBricks {
		sc.MPTCPWait = 500 * time.Millisecond
	}
	if sc.MNOOutage == 0 {
		sc.MNOOutage = 40 * time.Millisecond
	}
	if sc.Duration == 0 {
		sc.Duration = 10 * time.Minute
	}
	if sc.Route.Name == "" {
		sc.Route = mobility.Downtown
	}
	return sc
}

// World is a built emulation: the simulator, the operator path, the
// transport connection (for TCP-class apps), and the scheduled handover
// sequence.
type World struct {
	Sim       *netem.Sim
	Conn      *mptcp.Conn
	Handovers []time.Duration
	Scenario  Scenario

	path *accessPath
	// lost and reattach are the caller's halves of a CellBricks handover
	// (accessPath.handover). They default to the bare transport; the billed
	// drive and the failover world put their control plane in them.
	lost     func()
	reattach func(ip string)
}

// ServerIP is the fixed EC2-side address.
const ServerIP = "server"

// NewWorld builds the emulated path and the transport connection, and
// schedules the scenario's handover events against it.
//
// CellBricks handovers: the address is invalidated, a fresh tower path
// (new policer state) is installed, and the new address appears after
// AttachLatency; MPTCP re-joins after its wait period. MNO handovers: the
// IP persists and the path merely blacks out for MNOOutage.
func NewWorld(sc Scenario) *World { return newWorld(sc.Defaults(), nil, "ue") }

// newWorld builds the world for a defaulted scenario, naming the UE's
// addresses prefix-0, prefix-1, …. handovers fixes the mobility instants;
// nil draws the route's statistical schedule from the simulator's stream.
func newWorld(sc Scenario, handovers []time.Duration, prefix string) *World {
	sim := netem.NewSim(sc.Seed)
	w := &World{Sim: sim, Scenario: sc, path: newAccessPath(sim, sc.Seed, sc.Route, sc.Night, prefix)}
	cfg := mptcp.Config{
		Multipath:    sc.Arch == ArchCellBricks,
		Protocol:     sc.Protocol,
		AddrWorkWait: sc.MPTCPWait,
		Timeout:      60 * time.Second,
	}
	if cfg.Protocol == mptcp.ProtoQUIC {
		cfg.AddrWorkWait = 0 // QUIC has no address-worker artifact
	}
	w.Conn = mptcp.NewConn(sim, ServerIP, w.path.ip, cfg)
	w.lost, w.reattach = w.Conn.AddrInvalidated, w.addrAfterAttach
	w.Handovers = w.path.drive(sc, handovers, w.handover)
	return w
}

// handover fires one mobility event against the transport connection.
func (w *World) handover() {
	sc := w.Scenario
	if sc.SoftHandover && sc.Arch == ArchCellBricks {
		// Make-before-break: attach to the target first (the SAP
		// exchange runs while the old radio link still carries
		// traffic), then migrate and drop the old path.
		oldIP := w.path.ip
		newIP := w.path.connectNext()
		w.Sim.After(sc.AttachLatency, func() {
			w.Conn.MigrateSoft(newIP)
			w.Sim.After(200*time.Millisecond, func() { w.Sim.Disconnect(ServerIP, oldIP) })
		})
		return
	}
	w.path.handover(sc, w.lost, w.reattach)
}

// addrAfterAttach is the bare re-attach: the new address appears d later,
// or, when the handover lands in the broker outage window, d after the
// broker is reachable again.
func (w *World) addrAfterAttach(ip string) {
	sc := w.Scenario
	ready := sc.AttachLatency
	if sc.BrokerDownFor > 0 {
		now := w.Sim.Now()
		end := sc.BrokerDownAt + sc.BrokerDownFor
		if now >= sc.BrokerDownAt && now < end {
			ready = end - now + sc.AttachLatency
		}
	}
	w.Sim.After(ready, func() { w.Conn.AddrAvailable(ip) })
}

// --- scenario runners for each application class ---

// RunIperf runs the bulk-throughput workload for the scenario's duration.
func RunIperf(sc Scenario) apps.IperfResult {
	w := NewWorld(sc)
	return apps.NewIperf(w.Sim, w.Conn, time.Second).Run(w.Scenario.Duration)
}

// RunPing runs the latency prober. For CellBricks the prober rehomes with
// the connection at each handover; for MNO it stays put (probes during the
// brief outage are lost in both cases).
func RunPing(sc Scenario) (p50 time.Duration, loss float64) {
	sc = sc.Defaults()
	sim := netem.NewSim(sc.Seed)
	path := newAccessPath(sim, sc.Seed, sc.Route, sc.Night, "ping-ue")
	p := apps.NewPinger(sim, path.ip, ServerIP, 200*time.Millisecond)
	found := path.after(sc.AttachLatency, p.SetClientIP)
	path.drive(sc, nil, func() { path.handover(sc, p.InvalidateClient, found) })
	p.Run(sc.Duration)
	return p.Stats()
}

// RunVoIP runs the call workload. CellBricks uses the SIP re-INVITE
// fallback (VoIP rides RTP, not MPTCP): after the new attachment, one
// signalling round trip restores media.
func RunVoIP(sc Scenario) apps.VoIPResult {
	sc = sc.Defaults()
	sim := netem.NewSim(sc.Seed)
	path := newAccessPath(sim, sc.Seed, sc.Route, sc.Night, "voip-ue")
	v := apps.NewVoIP(sim, path.ip, ServerIP)
	signalRTT := 2 * sc.Route.Delay
	rehome := path.after(sc.AttachLatency, func(ip string) { v.Rehome(ip, signalRTT) })
	path.drive(sc, nil, func() { path.handover(sc, v.InvalidateClient, rehome) })
	return v.Run(sc.Duration)
}

// RunVideo runs the HLS workload.
func RunVideo(sc Scenario) apps.VideoResult {
	w := NewWorld(sc)
	return apps.NewVideo(w.Sim, w.Conn).Run(w.Scenario.Duration)
}

// RunWeb runs the page-load workload.
func RunWeb(sc Scenario) apps.WebResult {
	w := NewWorld(sc)
	return apps.NewWeb(w.Sim, w.Conn).Run(w.Scenario.Duration)
}

// NewGeoWorld builds a World whose handover instants come from the radio
// geometry instead of the statistical schedule: a ran.Mobile drives past
// a linear deployment of single-tower bTelcos at the route's speed, and
// each hysteresis-filtered strongest-cell change becomes a detach + SAP
// re-attach. This ties the UE-driven, network-assisted cell selection of
// §4.2 into the data-plane emulation.
func NewGeoWorld(sc Scenario, towers int) (*World, []ran.HandoverEvent) {
	sc = sc.Defaults()
	if towers <= 0 {
		towers = 64
	}
	deployment := ran.LinearDeployment(towers, sc.Route.TowerSpacingM, func(i int) string {
		return fmt.Sprintf("geo-btelco-%d", i)
	})
	mobile := ran.NewMobile(deployment, sc.Route.Speed(sc.Night))
	events := mobile.DriveHandovers(sc.Duration, 100*time.Millisecond)

	at := make([]time.Duration, len(events)) // non-nil even for a drive with no handover
	for i, ev := range events {
		at[i] = ev.At
	}
	return newWorld(sc, at, "ue"), events
}
