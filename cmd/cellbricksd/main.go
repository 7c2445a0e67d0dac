// Command cellbricksd runs a CellBricks testbed node over real TCP
// sockets. It can play three roles:
//
//	cellbricksd -role broker -listen 127.0.0.1:7700
//	    Runs brokerd: SAP authorization + billing ingestion.
//
//	cellbricksd -role btelco -listen 127.0.0.1:7800 -broker-addr 127.0.0.1:7700
//	    Runs a bTelco (AGW + NAS server) that forwards SAP requests to the
//	    broker. (In this self-contained testbed build, keys and
//	    certificates come from a deterministic demo CA shared by all
//	    roles.)
//
//	cellbricksd -role ue -btelco-addr 127.0.0.1:7800
//	    Provisions a UE with the local demo broker state, attaches via
//	    SAP over TCP, prints the attachment, and detaches.
//
//	cellbricksd -role demo
//	    Runs all three in-process on loopback, attaches a UE, passes one
//	    billing cycle, and prints everything — the zero-config smoke test.
//
// Observability: -debug-addr serves Prometheus text metrics (/metrics),
// expvar (/debug/vars), and pprof (/debug/pprof/) for whatever role is
// running; -v raises logging to debug level (wire retries, redials);
// -trace-out (demo role) records the attach's causal span tree to a
// Chrome-trace or JSON-lines file.
//
// The demo CA/keys make the roles interoperable without a key-exchange
// step; a production deployment would provision real keys (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/obs"
	"cellbricks/internal/sap"
	"cellbricks/internal/testbed"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

const logSub = "cellbricksd"

// fatalf logs at error level and exits.
func fatalf(format string, args ...any) {
	obs.Errorf(logSub, format, args...)
	os.Exit(1)
}

// demoCast is the deterministic demo cast every role mints from, so a
// multi-process testbed needs no key distribution: the CA, the broker and
// the demo UE (registered with that broker) are seeded, and each role keeps
// the part it plays. A bTelco's key is drawn fresh; its certificate is
// valid for 24 h from start-up.
func demoCast() (*core.Cast, *sap.UEState) {
	c, err := core.New("demo-ca", core.Seed(81), "broker.demo", core.Seed(82), time.Time{}, nil)
	if err != nil {
		fatalf("%v", err)
	}
	sim, _, err := c.NewSubscriber(core.Seed(83))
	if err != nil {
		fatalf("%v", err)
	}
	return c, sim
}

func main() {
	role := flag.String("role", "demo", "broker|btelco|ue|demo")
	listen := flag.String("listen", "127.0.0.1:0", "listen address (broker, btelco)")
	brokerAddr := flag.String("broker-addr", "127.0.0.1:7700", "brokerd address (btelco role)")
	btelcoAddr := flag.String("btelco-addr", "127.0.0.1:7800", "bTelco NAS address (ue role)")
	telcoID := flag.String("telco-id", "btelco-demo", "bTelco identity (btelco, ue roles)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:9090, :0 for ephemeral)")
	traceOut := flag.String("trace-out", "", "demo role: write the attach span tree to this file (.jsonl = JSON-lines, else Chrome trace)")
	verbose := flag.Bool("v", false, "enable debug-level logging (wire retries, redials)")
	flag.Parse()
	obs.Verbose(*verbose)

	debugging := false
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			fatalf("debug server: %v", err)
		}
		defer dbg.Close()
		debugging = true
		obs.Infof(logSub, "debug endpoints at http://%s/ (metrics, vars, pprof)", dbg.Addr())
	}

	switch *role {
	case "broker":
		runBroker(*listen)
	case "btelco":
		runBTelco(*listen, *brokerAddr, *telcoID)
	case "ue":
		runUE(*btelcoAddr, *telcoID)
	case "demo":
		runDemo(debugging, *traceOut)
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", *role)
		os.Exit(2)
	}
}

func runBroker(listen string) {
	c, _ := demoCast()
	srv, err := broker.Serve(c.Broker, listen)
	if err != nil {
		fatalf("%v", err)
	}
	defer srv.Close()
	obs.Infof(logSub, "brokerd %s listening on %s", c.Config.ID, srv.Addr())
	waitForInterrupt()
}

func runBTelco(listen, brokerAddr, telcoID string) {
	c, _ := demoCast()
	telco, err := c.NewTelco(telcoID, nil, 2.0)
	if err != nil {
		fatalf("%v", err)
	}
	// One pooled client for the daemon's life (the demo trusts the demo key).
	bc, err := broker.DialClient(brokerAddr)
	if err != nil {
		fatalf("broker at %s: %v", brokerAddr, err)
	}
	defer bc.Close()
	agw := epc.NewAGW(epc.AGWConfig{
		Telco:   telco,
		Brokers: epc.StaticDirectory{ID: c.Config.ID, Client: bc, Pub: c.BrokerPub},
	})
	srv, err := epc.ServeNAS(agw, listen)
	if err != nil {
		fatalf("%v", err)
	}
	defer srv.Close()
	obs.Infof(logSub, "bTelco %s: NAS on %s, broker at %s", telcoID, srv.Addr(), brokerAddr)
	waitForInterrupt()
}

func runUE(btelcoAddr, telcoID string) {
	_, sim := demoCast()
	dev := ue.NewDevice("demo-ue", nil, sim)
	client, err := wire.Dial(btelcoAddr)
	if err != nil {
		fatalf("%v", err)
	}
	defer client.Close()
	tx := func(envelope []byte) ([]byte, error) {
		_, reply, err := client.Call(wire.TypeNAS, epc.EncodeNASCall("demo-ue", envelope))
		return reply, err
	}
	a, err := dev.AttachSAP(tx, telcoID)
	if err != nil {
		fatalf("attach: %v", err)
	}
	obs.Infof(logSub, "attached: session=%d ip=%s bearer=%d qci=%d dl=%d ul=%d",
		a.SessionID, a.IP, a.BearerID, a.QCI, a.DLAmbrBps, a.ULAmbrBps)
	if err := dev.Detach(tx); err != nil {
		fatalf("detach: %v", err)
	}
	obs.Infof(logSub, "detached cleanly")
}

func runDemo(stayUp bool, traceOut string) {
	// With -trace-out, the whole demo deployment is traced: the UE roots
	// a span, the context rides the NAS envelope to the AGW and the wire
	// frames from the AGW to the broker, and every component's spans land
	// in one parented tree.
	var tracer *obs.Tracer
	if traceOut != "" {
		tracer = obs.NewTracer(1, nil)
	}
	d, err := testbed.NewRealDeploymentTraced(tracer)
	if err != nil {
		fatalf("%v", err)
	}
	defer d.Close()
	obs.Infof(logSub, "demo: brokerd=%s sdb=%s agw-nas=%s",
		d.BrokerSrv.Addr(), d.SDBSrv.Addr(), d.NASSrv.Addr())

	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		fatalf("%v", err)
	}
	dev.TraceAttach(tracer, tracer.NewTrace())
	a, err := dev.AttachSAP(tx, d.TelcoID())
	if err != nil {
		fatalf("SAP attach: %v", err)
	}
	obs.Infof(logSub, "SAP attach ok: session=%d ip=%s", a.SessionID, a.IP)

	// Pass some traffic and settle one billing cycle.
	bearer := d.AGW.UserPlane().Lookup(a.IP)
	for i := 0; i < 100; i++ {
		if bearer.Process(time.Duration(i)*10*time.Millisecond, epc.Downlink, 1200) {
			dev.Meter.CountDL(1200)
		}
	}
	if err := d.UploadTelcoReport(a.SessionID, 30*time.Second); err != nil {
		fatalf("%v", err)
	}
	if err := d.UploadUEReport(dev, 30*time.Second); err != nil {
		fatalf("%v", err)
	}
	obs.Infof(logSub, "billing cycle ok: telco score %.2f, %d mismatches",
		d.Broker.TelcoScore(d.TelcoID()), len(d.Broker.Mismatches()))

	if err := dev.Detach(tx); err != nil {
		fatalf("%v", err)
	}
	obs.Infof(logSub, "detach ok")

	// And a legacy UE on the same core.
	ldev, ltx, err := d.NewLegacyUE("001015550001234")
	if err != nil {
		fatalf("%v", err)
	}
	la, err := ldev.AttachLegacy(ltx)
	if err != nil {
		fatalf("legacy attach: %v", err)
	}
	obs.Infof(logSub, "legacy attach ok: session=%d ip=%s", la.SessionID, la.IP)
	if err := ldev.Detach(ltx); err != nil {
		fatalf("%v", err)
	}
	obs.Infof(logSub, "demo complete")

	if tracer != nil {
		if err := obs.WriteTraceFile(traceOut, tracer.Events()); err != nil {
			fatalf("trace: %v", err)
		}
		obs.Infof(logSub, "wrote %d trace events to %s", tracer.Len(), traceOut)
	}

	// With a debug server running, keep the demo's populated metrics
	// scrapeable until interrupted.
	if stayUp {
		obs.Infof(logSub, "debug endpoints still serving; ctrl-C to exit")
		waitForInterrupt()
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	obs.Infof(logSub, "shutting down")
}
