package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/broker"
	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/ue"
)

// principals is the control-plane cast every scenario stages (DESIGN.md
// §2.6): one CA, the broker it anchors, and the bTelcos and subscribers
// minted against them. It owns the in-process SAP handshake and the sealed
// bTelco report, so a world states only names, seeds and prices.
type principals struct {
	ca        *pki.CA
	brk       *broker.Brokerd
	brkCfg    broker.Config // what brk was built from (failover restarts from it)
	brokerPub pki.PublicIdentity
	epoch     time.Time // every certificate runs from epoch−1 h to epoch+24 h
}

// newPrincipals seeds the CA and the broker. A non-zero epoch pins the
// broker's clock to it, so certificate checks do not depend on the wall
// clock; the zero epoch means now. tune, if set, adjusts the default broker
// configuration before the broker is built.
func newPrincipals(caName string, caSeed []byte, brokerID string, brokerSeed []byte, epoch time.Time, tune func(*broker.Config)) (*principals, error) {
	ca, err := pki.NewCAFromSeed(caName, caSeed)
	if err != nil {
		return nil, err
	}
	key, err := pki.KeyPairFromSeed(brokerSeed)
	if err != nil {
		return nil, err
	}
	p := &principals{ca: ca, brokerPub: key.Public(), epoch: epoch}
	p.brkCfg = broker.DefaultConfig(brokerID, key, ca.Public())
	if epoch.IsZero() {
		p.epoch = time.Now()
	} else {
		p.brkCfg.Now = func() time.Time { return epoch }
	}
	if tune != nil {
		tune(&p.brkCfg)
	}
	p.brk = broker.New(p.brkCfg)
	return p, nil
}

// flatSeed is the 32-byte key seed made of one repeated byte.
func flatSeed(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

// keyFrom derives a key pair from seed, or draws a random one for nil.
func keyFrom(seed []byte) (*pki.KeyPair, error) {
	if seed == nil {
		return pki.GenerateKeyPair()
	}
	return pki.KeyPairFromSeed(seed)
}

// newTelco certifies a bTelco offering the default capability at the given
// price.
func (p *principals) newTelco(id string, seed []byte, pricePerGB float64) (*sap.TelcoState, error) {
	key, err := keyFrom(seed)
	if err != nil {
		return nil, fmt.Errorf("testbed: bTelco %s key: %w", id, err)
	}
	cert := p.ca.Issue(id, "btelco", key.Public(), p.epoch.Add(-time.Hour), p.epoch.Add(24*time.Hour))
	return &sap.TelcoState{
		IDT: id, Key: key, Cert: cert,
		Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: pricePerGB},
	}, nil
}

// newSubscriber registers a subscriber with the broker and returns its SIM
// state and baseband meter.
func (p *principals) newSubscriber(seed []byte) (*sap.UEState, *ue.BasebandMeter, error) {
	key, err := keyFrom(seed)
	if err != nil {
		return nil, nil, err
	}
	st := &sap.UEState{IDU: p.brk.RegisterUser(key.Public()), IDB: p.brkCfg.ID, Key: key, BrokerPub: p.brokerPub}
	return st, ue.NewBasebandMeter(key), nil
}

// beginAttach is the outbound half of the SAP handshake: the UE's request
// for telco and the bTelco's signed forward of it.
func beginAttach(st *sap.UEState, telco *sap.TelcoState) (*sap.PendingAttach, *sap.AuthReqT, error) {
	reqU, pending, err := st.NewAttachRequest(telco.IDT)
	if err != nil {
		return nil, nil, err
	}
	reqT, err := telco.ForwardRequest(reqU)
	return pending, reqT, err
}

// errUERejected marks the UE refusing a response its own bTelco accepted.
// Honest worlds never produce it, so the sharded worlds abort the run on it
// instead of retrying the attach.
var errUERejected = errors.New("testbed: UE rejected the broker's response")

// finishAttach is the inbound half: the broker's response through the
// bTelco to the UE. It returns the bTelco's grant and the UE's copy of the
// shared secret. A bTelco-side error (a denial, a response failing its
// checks) comes back as is, since the retry machines classify it.
func (p *principals) finishAttach(st *sap.UEState, telco *sap.TelcoState, pending *sap.PendingAttach, resp *sap.AuthResp) (*sap.Grant, nas.MasterKey, error) {
	grant, respU, err := telco.HandleResponse(p.brokerPub, resp)
	if err != nil {
		return nil, nas.MasterKey{}, err
	}
	ss, _, err := st.HandleResponse(pending, respU)
	if err != nil {
		return nil, ss, fmt.Errorf("%w: %w", errUERejected, err)
	}
	return grant, ss, nil
}

// attach runs the whole handshake synchronously against the broker. The
// returned sealer is the attach's exchange, for the session's UE reports.
func (p *principals) attach(st *sap.UEState, telco *sap.TelcoState) (*sap.Grant, *pki.Sealer, *sap.AuthResp, error) {
	pending, reqT, err := beginAttach(st, telco)
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := p.brk.HandleAuthRequest(reqT)
	if err != nil {
		return nil, nil, nil, err
	}
	grant, _, err := p.finishAttach(st, telco, pending, resp)
	return grant, pending.Sealer, resp, err
}

// telcoReport seals the bTelco's half of a billing cycle for the broker.
func (p *principals) telcoReport(telco *sap.TelcoState, uref string, seq uint32, rel time.Duration, dlBytes uint64) (*billing.SealedReport, error) {
	return telco.SealReport(p.brokerPub, &billing.Report{
		SessionRef: uref, Reporter: billing.ReporterTelco,
		Seq: seq, Rel: rel, DLBytes: dlBytes,
	})
}
