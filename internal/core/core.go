// Package core provisions the CellBricks cast (DESIGN.md §2.6): one seeded
// certificate authority, the broker it anchors, and the bTelcos and
// subscribers certified and registered against them. Every testbed world,
// the examples and cellbricksd mint through it; how a world then reaches
// the broker — a direct call, a simulator, a socket — is the world's.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/epc"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// Cast is one CA and the broker it anchors.
type Cast struct {
	Broker    *broker.Brokerd
	Config    broker.Config // what Broker was built from (a restart starts from it)
	BrokerPub pki.PublicIdentity

	ca    *pki.CA
	epoch time.Time // every certificate runs from epoch−1 h to epoch+24 h
}

// New seeds the CA and the broker. A non-zero epoch pins the broker's clock
// to it, so certificate checks do not depend on the wall clock; the zero
// epoch means now. tune, if set, adjusts the default broker configuration
// before the broker is built.
func New(caName string, caSeed []byte, brokerID string, brokerSeed []byte, epoch time.Time, tune func(*broker.Config)) (*Cast, error) {
	ca, err := pki.NewCAFromSeed(caName, caSeed)
	if err != nil {
		return nil, err
	}
	key, err := pki.KeyPairFromSeed(brokerSeed)
	if err != nil {
		return nil, err
	}
	c := &Cast{BrokerPub: key.Public(), ca: ca, epoch: epoch}
	c.Config = broker.DefaultConfig(brokerID, key, ca.Public())
	if epoch.IsZero() {
		c.epoch = time.Now()
	} else {
		c.Config.Now = func() time.Time { return epoch }
	}
	if tune != nil {
		tune(&c.Config)
	}
	c.Broker = broker.New(c.Config)
	return c, nil
}

// Seed is the 32-byte key seed made of one repeated byte.
func Seed(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

// keyFrom derives a key pair from seed, or draws a random one for nil.
func keyFrom(seed []byte) (*pki.KeyPair, error) {
	if seed == nil {
		return pki.GenerateKeyPair()
	}
	return pki.KeyPairFromSeed(seed)
}

// NewTelco certifies a bTelco offering the default capability at the given
// price. Its only prerequisite is the certificate: no agreement with any
// broker or user, which is the point of the architecture.
func (c *Cast) NewTelco(id string, seed []byte, pricePerGB float64) (*sap.TelcoState, error) {
	if id == "" {
		return nil, errors.New("core: bTelco needs an ID")
	}
	key, err := keyFrom(seed)
	if err != nil {
		return nil, fmt.Errorf("core: bTelco %s key: %w", id, err)
	}
	cert := c.ca.Issue(id, "btelco", key.Public(), c.epoch.Add(-time.Hour), c.epoch.Add(24*time.Hour))
	return &sap.TelcoState{
		IDT: id, Key: key, Cert: cert,
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: pricePerGB},
	}, nil
}

// NewSubscriber registers a subscriber with the broker and returns its SIM
// state — the broker-issued key pair and the broker's public key, all SAP
// needs at the UE — and its baseband meter. The broker registers the
// signing key alone: nothing is ever sealed to a UE's long-term key, so
// its box half is never derived.
func (c *Cast) NewSubscriber(seed []byte) (*sap.UEState, *ue.BasebandMeter, error) {
	key, err := keyFrom(seed)
	if err != nil {
		return nil, nil, err
	}
	st := &sap.UEState{IDU: c.Broker.RegisterUser(pki.PublicIdentity{SigPub: key.Pub}), IDB: c.Config.ID, Key: key, BrokerPub: c.BrokerPub}
	return st, ue.NewBasebandMeter(key), nil
}

// ReportCycle runs one verifiable-billing cycle of an attached session: the
// AGW's user-plane counters and the device's baseband counters both go to
// the broker, which pairs and checks them. It returns the mismatch if the
// broker flagged one.
func (c *Cast) ReportCycle(agw *epc.AGW, dev *ue.Device, sessionID uint64, rel time.Duration) (*billing.Mismatch, error) {
	var mm *billing.Mismatch
	up := func(env *billing.SealedReport) (err error) {
		mm, err = c.Broker.HandleReport(env)
		return err
	}
	if err := agw.UploadReport(sessionID, rel, billing.QoSMetrics{}, up); err != nil {
		return nil, err
	}
	if err := dev.Meter.UploadReport(rel, up); err != nil {
		return nil, err
	}
	return mm, nil
}
