package testbed

import (
	"fmt"
	"sync/atomic"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/core"
	"cellbricks/internal/epc"
	"cellbricks/internal/obs"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

// RealDeployment is the loopback-TCP testbed: brokerd and the subscriber
// database run as real wire-protocol servers (as they would in the cloud),
// the AGW runs as a real NAS server, and UEs dial in over TCP where the
// radio would be. This is the §5 prototype topology: UE | eNodeB+EPC |
// brokerd, minus the SDR.
type RealDeployment struct {
	Broker *broker.Brokerd
	AGW    *epc.AGW
	SDB    *epc.SubscriberDB

	BrokerSrv    *broker.Server
	SDBSrv       *epc.SDBServer
	NASSrv       *epc.NASServer
	brokerClient *broker.Client // pooled; shared by the AGW's directory and the report uploads
	sdbClient    *epc.SDBClient // the AGW's legacy northbound

	cast   *core.Cast
	telco  *sap.TelcoState
	ranSeq atomic.Uint64
}

// NewRealDeployment starts all three servers on loopback.
func NewRealDeployment() (*RealDeployment, error) {
	return NewRealDeploymentTraced(nil)
}

// NewRealDeploymentTraced is NewRealDeployment with causal tracing armed:
// the broker server decodes trace contexts from incoming frames, the AGW
// parents its spans under the NAS envelope's context, and a traced attach
// over real sockets yields the same span tree the simulator produces.
func NewRealDeploymentTraced(tr *obs.Tracer) (*RealDeployment, error) {
	cast, err := core.New("real-ca", core.Seed(61), "broker.real", core.Seed(62), time.Time{}, nil)
	if err != nil {
		return nil, err
	}
	d := &RealDeployment{Broker: cast.Broker, cast: cast}
	if d.BrokerSrv, err = broker.ServeTraced(d.Broker, "127.0.0.1:0", tr); err != nil {
		return nil, err
	}

	if d.brokerClient, err = broker.DialClient(d.BrokerSrv.Addr()); err != nil {
		d.Close()
		return nil, err
	}

	d.SDB = epc.NewSubscriberDB()
	if d.SDBSrv, err = epc.ServeSDB(d.SDB, "127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}

	if d.telco, err = cast.NewTelco("btelco-real", core.Seed(63), 2.0); err != nil {
		d.Close()
		return nil, err
	}

	if d.sdbClient, err = epc.DialSDB(d.SDBSrv.Addr()); err != nil {
		d.Close()
		return nil, err
	}
	d.AGW = epc.NewAGW(epc.AGWConfig{
		Telco:       d.telco,
		Subscribers: d.sdbClient,
		Brokers:     epc.StaticDirectory{ID: d.Broker.ID(), Client: d.brokerClient, Pub: d.Broker.Public()},
		Tracer:      tr,
	})
	if d.NASSrv, err = epc.ServeNAS(d.AGW, "127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// Close stops all servers and closes the clients the deployment dialled.
func (d *RealDeployment) Close() {
	if d.NASSrv != nil {
		d.NASSrv.Close()
	}
	if d.sdbClient != nil {
		d.sdbClient.Close()
	}
	if d.SDBSrv != nil {
		d.SDBSrv.Close()
	}
	if d.brokerClient != nil {
		d.brokerClient.Close()
	}
	if d.BrokerSrv != nil {
		d.BrokerSrv.Close()
	}
}

// TelcoID returns the deployed bTelco identifier.
func (d *RealDeployment) TelcoID() string { return d.telco.IDT }

// NewCellBricksUE provisions a CellBricks device with the broker and
// returns it along with a NAS transport dialled over real TCP.
func (d *RealDeployment) NewCellBricksUE() (*ue.Device, ue.NASTransport, error) {
	st, _, err := d.cast.NewSubscriber(nil)
	if err != nil {
		return nil, nil, err
	}
	ranID := fmt.Sprintf("real-ue-%d", d.ranSeq.Add(1))
	dev := ue.NewDevice(ranID, nil, st)
	tx, err := d.dialNAS(ranID)
	return dev, tx, err
}

// NewLegacyUE provisions a legacy SIM in the SDB and returns the device
// and transport.
func (d *RealDeployment) NewLegacyUE(imsi string) (*ue.Device, ue.NASTransport, error) {
	k, err := aka.NewK()
	if err != nil {
		return nil, nil, err
	}
	d.SDB.Provision(imsi, k, epc.SubscriberProfile{QoS: qos.DefaultParams(), APN: "internet"})
	ranID := fmt.Sprintf("real-legacy-%d", d.ranSeq.Add(1))
	dev := ue.NewDevice(ranID, &aka.SIM{K: k, IMSI: imsi}, nil)
	tx, err := d.dialNAS(ranID)
	return dev, tx, err
}

func (d *RealDeployment) dialNAS(ranID string) (ue.NASTransport, error) {
	client, err := wire.Dial(d.NASSrv.Addr())
	if err != nil {
		return nil, err
	}
	return func(envelope []byte) ([]byte, error) {
		// The trace context rides the NAS envelope, where the AGW reads it;
		// the wire frame carrying the envelope is untraced.
		_, reply, err := client.Call(wire.TypeNAS, epc.EncodeNASCall(ranID, envelope))
		return reply, err
	}, nil
}

// UploadUEReport sends a UE baseband report to brokerd over the wire.
func (d *RealDeployment) UploadUEReport(dev *ue.Device, rel time.Duration) error {
	return dev.Meter.UploadReport(rel, d.brokerClient.UploadReport)
}

// UploadTelcoReport sends the AGW-side report for a session.
func (d *RealDeployment) UploadTelcoReport(sessionID uint64, rel time.Duration) error {
	return d.AGW.UploadReport(sessionID, rel, billing.QoSMetrics{}, d.brokerClient.UploadReport)
}
