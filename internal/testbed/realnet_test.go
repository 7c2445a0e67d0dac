package testbed

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/nas"
	"cellbricks/internal/obs"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

func counter(name string) float64 { return obs.Default().Snapshot()[name] }

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no per-process descriptor table to count: %v", err)
	}
	return len(fds)
}

// A deployment closes every socket it opened: five start-and-close cycles
// leave the descriptor count where one warm-up cycle left it.
func TestRealDeploymentCloseLeaksNoSocket(t *testing.T) {
	cycle := func() {
		d, err := NewRealDeployment()
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	openFDs(t)
	cycle() // the runtime's poller and the process's first sockets
	before := openFDs(t)
	for i := 0; i < 5; i++ {
		cycle()
	}
	if after := openFDs(t); after > before {
		t.Fatalf("%d descriptors open before five deployments, %d after they closed", before, after)
	}
}

// billedSession is one session_real op: attach, both reports, detach.
func billedSession(d *RealDeployment, dev *ue.Device, tx ue.NASTransport) error {
	a, err := dev.AttachSAP(tx, d.TelcoID())
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	if err := d.UploadTelcoReport(a.SessionID, time.Second); err != nil {
		return fmt.Errorf("telco report: %w", err)
	}
	if err := d.UploadUEReport(dev, time.Second); err != nil {
		return fmt.Errorf("UE report: %w", err)
	}
	if err := dev.Detach(tx); err != nil {
		return fmt.Errorf("detach: %w", err)
	}
	return nil
}

// attachDetach runs n billed SAP sessions on a new UE of d.
func attachDetach(d *RealDeployment, n int) error {
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := billedSession(d, dev, tx); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	return nil
}

// The leak regression test: sequential sessions ride one warm broker
// connection. Broker connections come only from pool dials, so none in 500
// sessions means the broker still serves the one it started with; and its
// goroutine count (one per served connection) stays flat. At the parent of
// this test every attach dialled a connection that nothing closed: one more
// broker-side connection and goroutine per attach until a GC finalized them.
func TestRealDeploymentSequentialAttachesHoldOneBrokerConn(t *testing.T) {
	n := 500
	if raceEnabled {
		n = 100 // the detector slows each attach's crypto ~10x
	}
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := attachDetach(d, 5); err != nil { // reach steady state first
		t.Fatal(err)
	}
	goroutines, dials, reuses := runtime.NumGoroutine(), counter("wire_pool_dials_total"), counter("wire_pool_reuses_total")
	receipts := counter("epc_receipts_total")
	if err := attachDetach(d, n); err != nil {
		t.Fatal(err)
	}
	// One goroutine of slack for the second UE's NAS connection.
	if got := runtime.NumGoroutine(); got > goroutines+1 {
		t.Fatalf("goroutines grew from %d to %d over %d attaches", goroutines, got, n)
	}
	if got := counter("wire_pool_dials_total") - dials; got != 0 {
		t.Fatalf("wire_pool_dials_total moved by %v over %d sequential attaches", got, n)
	}
	// Every attach but the deployment's first rode the bTelco's pass, and
	// each 256th of those redeemed a receipt on the same connection
	// (DESIGN.md §2.9).
	redeemed := counter("epc_receipts_total") - receipts
	if want := float64((4 + n) / 256); redeemed != want {
		t.Fatalf("%v receipts redeemed over %d MAC-mode grants, want %v", redeemed, 4+n, want)
	}
	if got := counter("wire_pool_reuses_total") - reuses; got != float64(3*n)+redeemed {
		t.Fatalf("wire_pool_reuses_total moved by %v, want %v (one attach and two reports per session, one call per receipt)", got, float64(3*n)+redeemed)
	}
}

// A broker restart between two attaches closes the AGW's pooled
// connection under it; the second attach must succeed on one redial.
func TestRealDeploymentAttachSurvivesBrokerRestart(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	attaches, failures := counter("epc_attaches_total"), counter("epc_attach_failures_total")
	if err := attachDetach(d, 1); err != nil {
		t.Fatal(err)
	}

	addr := d.BrokerSrv.Addr()
	d.BrokerSrv.Close()
	if d.BrokerSrv, err = broker.Serve(d.Broker, addr); err != nil {
		t.Fatal(err)
	}
	redials := counter("wire_client_redials_total")
	if err := attachDetach(d, 1); err != nil {
		t.Fatalf("session after broker restart: %v", err)
	}
	if got := counter("wire_client_redials_total") - redials; got != 1 {
		t.Fatalf("attach after broker restart cost %v redials, want exactly 1", got)
	}
	if a, f := counter("epc_attaches_total")-attaches, counter("epc_attach_failures_total")-failures; f != 0 || a != 2 {
		t.Fatalf("AGW counted %v attaches and %v failures, want 2 and none", a, f)
	}
}

// A broker that crashes and comes back from its snapshot holds the bTelco's
// certified key and no pass (DESIGN.md §2.10): the live session's next
// bTelco report goes out MAC'd, is refused with the typed "sign it" reply,
// and is resent signed — over the sockets, before any new grant — while the
// UE's MAC'd report needs no broker state at all. Both are ingested once.
func TestRealDeploymentReportsSurviveBrokerCrashRestart(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	if err := attachDetach(d, 1); err != nil { // the bTelco's stream has sent its signed first report
		t.Fatal(err)
	}
	if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
		t.Fatal(err)
	}
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}
	a, err := dev.AttachSAP(tx, d.TelcoID()) // ticketed
	if err != nil {
		t.Fatal(err)
	}
	pair := func(rel time.Duration) {
		t.Helper()
		if err := d.UploadTelcoReport(a.SessionID, rel); err != nil {
			t.Fatalf("bTelco report at %v: %v", rel, err)
		}
		if err := d.UploadUEReport(dev, rel); err != nil {
			t.Fatalf("UE report at %v: %v", rel, err)
		}
	}
	pair(time.Second) // the device's stream signs its first; the bTelco's is MAC'd

	addr := d.BrokerSrv.Addr()
	d.BrokerSrv.Close()
	if d.Broker, err = broker.Restart(d.cast.Config, d.Broker.Snapshot(), 0); err != nil {
		t.Fatal(err)
	}
	if d.BrokerSrv, err = broker.Serve(d.Broker, addr); err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()
	pair(2 * time.Second)
	pair(3 * time.Second)
	after := obs.Default().Snapshot()
	for name, want := range map[string]float64{
		"broker_reports_ingested_total":  4,
		"broker_reports_macd_total":      2, // the UE's two; the bTelco's two went signed
		"broker_report_mismatches_total": 0,
		"broker_report_replays_total":    0,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %v after the restart, want %v", name, got, want)
		}
	}
	if s := d.Broker.TelcoScore(d.TelcoID()); s != 1 {
		t.Fatalf("bTelco score %v after the restart", s)
	}
}

// Rule "a UE key never has a resident sealer", end to end: through
// ue.Device over the loopback deployment, every attach opens its own
// exchange, the session's baseband reports ride that one and no earlier
// one, and the broker books them. What the serving bTelco can see links a
// report to the attach it served — never one session to the next. The one
// prefix the air sees twice is a shed request's, once more in the request
// that rode its ticket to another bTelco (DESIGN.md §2.8).
func TestRealDeploymentUEPrefixNeverRepeatsAcrossAttaches(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	var attachPrefix string // of the attach request last seen on the air
	tap := func(env []byte) ([]byte, error) {
		if _, _, body, err := nas.SplitEnvelope(env); err == nil {
			if m, err := nas.Decode(body); err == nil {
				if a, ok := m.(*nas.AttachRequestSAP); ok {
					reqU, err := sap.UnmarshalAuthReqU(a.AuthReqU)
					if err != nil {
						return nil, err
					}
					attachPrefix = string(reqU.SealedVec[:32])
				}
			}
		}
		return tx(env)
	}
	seen := map[string]int{}
	for session := 0; session < 3; session++ {
		a, err := dev.AttachSAP(tap, d.TelcoID())
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[attachPrefix]; dup {
			t.Fatalf("attach %d reuses the exchange of attach %d", session, prev)
		}
		seen[attachPrefix] = session
		if err := d.UploadTelcoReport(a.SessionID, time.Second); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 2; cycle++ {
			env, err := dev.Meter.Report(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(env.Sealed[:32]); got != attachPrefix {
				t.Fatalf("session %d report %d does not ride its own attach's exchange", session, cycle)
			}
			if err := d.brokerClient.UploadReport(env); err != nil {
				t.Fatalf("session %d report %d: %v", session, cycle, err)
			}
		}
		if err := dev.Detach(tap); err != nil {
			t.Fatal(err)
		}
	}

	d.Broker.ShedLoad(time.Second)
	var ra *wire.RetryAfterError
	if _, err := dev.AttachSAP(tap, d.TelcoID()); !errors.As(err, &ra) {
		t.Fatalf("attach at a shedding broker: %v", err)
	}
	d.Broker.Resume()
	shed := attachPrefix
	if _, dup := seen[shed]; dup {
		t.Fatal("the shed attach reuses a session's exchange")
	}
	// The deployment has one bTelco, so the other one is a name its AGW does
	// not answer to: the broker refuses the binding, spending the ticket.
	if _, err := dev.AttachSAP(tap, "btelco-elsewhere"); !errors.Is(err, ue.ErrRejected) {
		t.Fatalf("attach naming another bTelco: %v", err)
	}
	if attachPrefix != shed {
		t.Fatal("the request that left the shed one behind did not ride its ticket")
	}
	if _, err := dev.AttachSAP(tap, d.TelcoID()); err != nil {
		t.Fatal(err)
	}
	if _, dup := seen[attachPrefix]; dup || attachPrefix == shed {
		t.Fatal("the attach after reuses an earlier exchange")
	}
	if err := dev.Detach(tap); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAttachRealLoopback is one SAP attach + detach over the loopback
// deployment: UE -> NAS socket -> AGW -> pooled broker socket -> brokerd.
func BenchmarkAttachRealLoopback(b *testing.B) {
	d, err := NewRealDeployment()
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.AttachSAP(tx, d.TelcoID()); err != nil {
			b.Fatal(err)
		}
		if err := dev.Detach(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealSession is the repository benchmark's session_real op — one
// billed session, attach to detach with both reports uploaded — so its
// allocs/op can be read with -benchmem without the frozen benchmark/. The
// first session, first contact on every leg, runs before the timer.
func BenchmarkRealSession(b *testing.B) {
	d, err := NewRealDeployment()
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		b.Fatal(err)
	}
	if err := billedSession(d, dev, tx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := billedSession(d, dev, tx); err != nil {
			b.Fatal(err)
		}
	}
}

// The billing counters are registered and they move (ROADMAP 5c, first
// instalment), by exactly what DESIGN.md §2.10 derives for one UE and one
// bTelco running n single-pair sessions over loopback sockets: 2n reports
// ingested; all MAC'd but the two of the first session, which is first
// contact on both legs and each stream's first report; one checkpoint
// verified per 256 MAC'd reports per reporter; nothing refused, nothing
// mismatched — and the same 20 frames per session as before checkpoints
// existed, plus the 4 of each receipt exchange (§2.9), because a checkpoint
// rides the report that was going up anyway.
func TestRealDeploymentReportCountersMove(t *testing.T) {
	const n = 600
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	names := []string{"broker_reports_ingested_total", "broker_reports_macd_total", "broker_checkpoints_verified_total",
		"broker_checkpoints_refused_total", "broker_report_mismatches_total", "epc_receipts_total",
		"wire_frames_sent_total", "wire_frames_received_total"}
	before := obs.Default().Snapshot()
	if err := attachDetach(d, n); err != nil {
		t.Fatal(err)
	}
	// A server counts a reply's frame once its Write returns, which can be
	// after the client read the reply; Close waits for every handler.
	d.Close()
	after := obs.Default().Snapshot()
	moved := make(map[string]float64, len(names))
	for _, name := range names {
		if _, registered := after[name]; !registered {
			t.Fatalf("%s is not registered", name)
		}
		moved[name] = after[name] - before[name]
	}
	receipts := float64((n - 1) / 256)
	for name, want := range map[string]float64{
		"broker_reports_ingested_total":     2 * n,
		"broker_reports_macd_total":         2 * (n - 1),
		"broker_checkpoints_verified_total": 2 * ((n - 1) / 256),
		"broker_checkpoints_refused_total":  0,
		"broker_report_mismatches_total":    0,
		"epc_receipts_total":                receipts,
	} {
		if moved[name] != want {
			t.Errorf("%s moved by %v over %d sessions, want %v", name, moved[name], n, want)
		}
	}
	if frames := moved["wire_frames_sent_total"] + moved["wire_frames_received_total"]; frames != 20*n+4*receipts {
		t.Errorf("%v frames over %d sessions and %v receipts, want 20 per session and 4 per receipt", frames, n, receipts)
	}
	if kept := len(d.Broker.Checkpoints(billing.ReporterTelco, d.TelcoID())); kept != (n-1)/256 {
		t.Errorf("broker holds %d of the bTelco's checkpoints, want %d", kept, (n-1)/256)
	}
}

// realSessionAllocs bounds one billed session's allocations: the count
// measured when it was set, plus 2.
const realSessionAllocs = 119

// One billed session over loopback sockets — the session_real op, servers
// and clients in this process — allocates at most realSessionAllocs objects.
// 512 sessions cross exactly two receipt and two checkpoint boundaries
// (every 256 MAC-mode grants and MAC'd reports), so the average is the
// steady state's, receipts and checkpoints included.
func TestRealSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	if err := billedSession(d, dev, tx); err != nil { // first contact on every leg
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(512, func() {
		if e := billedSession(d, dev, tx); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocations per billed session", n)
	if n > realSessionAllocs {
		t.Errorf("%v allocations per billed session, bound %d", n, realSessionAllocs)
	}
}
