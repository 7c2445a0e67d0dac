// Package core is the top-level CellBricks API: it composes the substrate
// packages (pki, sap, nas, epc, broker, billing, ue) into the three
// first-class entities of the architecture — Broker, BTelco, and
// Subscriber — with the provisioning glue (CA, certificates, SIM state)
// a deployment needs. The examples and the cellbricksd daemon are written
// against this package.
package core

import (
	"fmt"
	"time"

	"cellbricks/internal/aka"
	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/epc"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/ran"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// Ecosystem is the trust root shared by every participant: the certificate
// authority whose signatures brokers use to authenticate bTelcos.
type Ecosystem struct {
	CA *pki.CA
}

// NewEcosystem creates a CA-rooted ecosystem.
func NewEcosystem(name string) (*Ecosystem, error) {
	ca, err := pki.NewCA(name)
	if err != nil {
		return nil, err
	}
	return &Ecosystem{CA: ca}, nil
}

// Broker is a running CellBricks broker with its provisioning surface.
type Broker struct {
	D *broker.Brokerd
}

// NewBroker creates a broker anchored to the ecosystem's CA.
func (e *Ecosystem) NewBroker(id string) (*Broker, error) {
	key, err := pki.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	cfg := broker.DefaultConfig(id, key, e.CA.Public())
	return &Broker{D: broker.New(cfg)}, nil
}

// NewBrokerWithConfig creates a broker with a custom policy configuration.
func (e *Ecosystem) NewBrokerWithConfig(cfg broker.Config) (*Broker, error) {
	if cfg.Key == nil {
		key, err := pki.GenerateKeyPair()
		if err != nil {
			return nil, err
		}
		cfg.Key = key
	}
	cfg.Anchor = e.CA.Public()
	return &Broker{D: broker.New(cfg)}, nil
}

// Subscribe issues a SIM for a new user: the broker-issued key pair and
// the broker's public key, exactly the static state SAP requires at the
// UE. The returned Subscriber is ready to attach through any bTelco.
func (b *Broker) Subscribe(ranID string) (*Subscriber, error) {
	key, err := pki.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	idU := b.D.RegisterUser(key.Public())
	sim := &sap.UEState{IDU: idU, IDB: b.D.ID(), Key: key, BrokerPub: b.D.Public()}
	return &Subscriber{Device: ue.NewDevice(ranID, nil, sim), IDU: idU}, nil
}

// Subscriber is a provisioned CellBricks user.
type Subscriber struct {
	Device *ue.Device
	IDU    string
}

// BTelco is an access provider of any scale: a certified SAP identity, an
// access gateway, and (for the examples) an in-process attach surface.
type BTelco struct {
	State *sap.TelcoState
	AGW   *epc.AGW
}

// BTelcoConfig shapes a new provider.
type BTelcoConfig struct {
	ID      string
	Terms   sap.ServiceTerms
	Brokers epc.BrokerDirectory
}

// btelcoCertTTL is the lifetime of the certificate a new provider is issued.
const btelcoCertTTL = 365 * 24 * time.Hour

// NewBTelco certifies and starts a provider. The only prerequisites are
// the certificate and the broker directory — no pre-established agreements
// with brokers or users, which is the point of the architecture.
func (e *Ecosystem) NewBTelco(cfg BTelcoConfig) (*BTelco, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("core: bTelco needs an ID")
	}
	key, err := pki.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	cert := e.CA.Issue(cfg.ID, "btelco", key.Public(), now.Add(-time.Minute), now.Add(btelcoCertTTL))
	terms := cfg.Terms
	if terms.Cap.QCIs == nil {
		terms.Cap = qos.DefaultCapability()
	}
	state := &sap.TelcoState{IDT: cfg.ID, Key: key, Cert: cert, Terms: terms}
	agw := epc.NewAGW(epc.AGWConfig{Telco: state, Brokers: cfg.Brokers})
	return &BTelco{State: state, AGW: agw}, nil
}

// Transport returns a NAS transport into this bTelco for a given RAN-level
// identifier (in-process; the wire-protocol equivalent lives in
// internal/testbed.RealDeployment).
func (t *BTelco) Transport(ranID string) ue.NASTransport {
	return func(envelope []byte) ([]byte, error) {
		return t.AGW.HandleNAS(ranID, envelope)
	}
}

// NewENB attaches an eNodeB front-end (RRC admission + transparent NAS
// relay) to this bTelco's core. UEs then reach the core through
// TransportVia, paying RRC connection setup like a real radio would.
func (t *BTelco) NewENB(cell ran.Cell) *ran.ENB {
	return ran.NewENB(cell, t.AGW.HandleNAS)
}

// TransportVia returns a NAS transport that goes through an eNodeB's RRC
// layer: the UE must hold an RRC connection on that cell.
func TransportVia(enb *ran.ENB, ranID string) ue.NASTransport {
	return func(envelope []byte) ([]byte, error) {
		return enb.ForwardNAS(ranID, envelope)
	}
}

// Directory is an in-process broker directory for single- or multi-broker
// deployments.
type Directory struct {
	brokers map[string]*Broker
}

// NewDirectory builds a directory over the given brokers.
func NewDirectory(brokers ...*Broker) *Directory {
	d := &Directory{brokers: make(map[string]*Broker, len(brokers))}
	for _, b := range brokers {
		d.brokers[b.D.ID()] = b
	}
	return d
}

// Add registers another broker.
func (d *Directory) Add(b *Broker) { d.brokers[b.D.ID()] = b }

// Lookup implements epc.BrokerDirectory.
func (d *Directory) Lookup(idB string) (epc.BrokerClient, pki.PublicIdentity, error) {
	b, ok := d.brokers[idB]
	if !ok {
		return nil, pki.PublicIdentity{}, fmt.Errorf("core: unknown broker %q", idB)
	}
	return brokerClient{b.D}, b.D.Public(), nil
}

type brokerClient struct{ d *broker.Brokerd }

func (c brokerClient) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	return c.d.HandleAuthRequest(req)
}

// Attach runs the full SAP attach of a subscriber through a bTelco and
// returns the attachment.
func (s *Subscriber) Attach(t *BTelco) (*ue.Attachment, error) {
	return s.Device.AttachSAP(t.Transport(s.Device.RANID), t.State.IDT)
}

// Detach releases the subscriber's attachment at the bTelco.
func (s *Subscriber) Detach(t *BTelco) error {
	return s.Device.Detach(t.Transport(s.Device.RANID))
}

// ReportCycle runs one verifiable-billing cycle for an attached session:
// the bTelco's user-plane counters and the UE's baseband counters both
// flow to the broker, which aligns and checks them. It returns the
// mismatch if the broker flagged one.
func ReportCycle(b *Broker, t *BTelco, s *Subscriber, sessionID uint64, rel time.Duration) (*billing.Mismatch, error) {
	var mm *billing.Mismatch
	up := func(env *billing.SealedReport) (err error) {
		mm, err = b.D.HandleReport(env)
		return err
	}
	if err := t.AGW.UploadReport(sessionID, rel, billing.QoSMetrics{}, up); err != nil {
		return nil, err
	}
	if err := s.Device.Meter.UploadReport(rel, up); err != nil {
		return nil, err
	}
	return mm, nil
}

// ProvisionLegacy issues a legacy SIM (shared key K) against a subscriber
// database, for dual-stack and baseline scenarios.
func ProvisionLegacy(db *epc.SubscriberDB, imsi, ranID string) (*ue.Device, error) {
	k, err := aka.NewK()
	if err != nil {
		return nil, err
	}
	db.Provision(imsi, k, epc.SubscriberProfile{QoS: qos.DefaultParams(), APN: "internet"})
	return ue.NewDevice(ranID, &aka.SIM{K: k, IMSI: imsi}, nil), nil
}
