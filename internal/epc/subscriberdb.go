package epc

import (
	"errors"
	"fmt"
	"sync"

	"cellbricks/internal/aka"
	"cellbricks/internal/codec"
	"cellbricks/internal/qos"
)

// ErrUnknownIMSI is returned for subscribers not in the database.
var ErrUnknownIMSI = errors.New("epc: unknown IMSI")

// SubscriberProfile is the legacy subscription record the Update Location
// Request fetches (the second S6A round trip the baseline pays and
// CellBricks eliminates).
type SubscriberProfile struct {
	IMSI string
	QoS  qos.Params
	APN  string
}

// SubscriberDB is the legacy home-operator database: permanent keys,
// sequence numbers, and subscription profiles. In the baseline deployment
// it lives in the carrier's datacenter or cloud — which is exactly why its
// round trips dominate attach latency in Fig. 7's us-east placement.
type SubscriberDB struct {
	mu   sync.Mutex
	subs map[string]*subscriber
}

type subscriber struct {
	k       aka.K
	sqn     uint64
	profile SubscriberProfile
}

// NewSubscriberDB creates an empty database.
func NewSubscriberDB() *SubscriberDB {
	return &SubscriberDB{subs: make(map[string]*subscriber)}
}

// Provision adds or replaces a subscriber.
func (db *SubscriberDB) Provision(imsi string, k aka.K, profile SubscriberProfile) {
	db.mu.Lock()
	defer db.mu.Unlock()
	profile.IMSI = imsi
	db.subs[imsi] = &subscriber{k: k, profile: profile}
}

// AuthInfo serves the Authentication Information Request: generate the
// next authentication vector for the subscriber.
func (db *SubscriberDB) AuthInfo(imsi string) (aka.Vector, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.subs[imsi]
	if !ok {
		return aka.Vector{}, fmt.Errorf("%w: %s", ErrUnknownIMSI, imsi)
	}
	s.sqn++
	return aka.GenerateVector(s.k, s.sqn)
}

// UpdateLocation serves the Update Location Request: record the serving
// core (elided here) and return the subscription profile.
func (db *SubscriberDB) UpdateLocation(imsi string) (SubscriberProfile, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.subs[imsi]
	if !ok {
		return SubscriberProfile{}, fmt.Errorf("%w: %s", ErrUnknownIMSI, imsi)
	}
	return s.profile, nil
}

// --- wire codec for the S6A-like RPCs ---

// aia is an authentication vector as the AIA payload carries it.
type aia aka.Vector

func (v *aia) fields(c codec.Coder) codec.Coder {
	c.Fixed(v.RAND[:])
	c.Bytes(&v.AUTN)
	c.Bytes(&v.XRES)
	c.Fixed(v.KASME[:])
	return c
}

// MarshalVector encodes an AIA payload.
func MarshalVector(v aka.Vector) []byte { return codec.Encode((*aia)(&v).fields) }

// UnmarshalVector decodes an AIA payload.
func UnmarshalVector(b []byte) (aka.Vector, error) {
	var v aka.Vector
	err := codec.Decode(b, (*aia)(&v).fields)
	return v, err
}

func (p *SubscriberProfile) fields(c codec.Coder) codec.Coder {
	c.String(&p.IMSI)
	c.String(&p.APN)
	c.Byte((*byte)(&p.QoS.QCI))
	c.Uint64(&p.QoS.DLAmbrBps)
	c.Uint64(&p.QoS.ULAmbrBps)
	return c
}

// MarshalProfile encodes a ULA payload.
func MarshalProfile(p SubscriberProfile) []byte { return codec.Encode(p.fields) }

// UnmarshalProfile decodes a ULA payload.
func UnmarshalProfile(b []byte) (SubscriberProfile, error) {
	var p SubscriberProfile
	err := codec.Decode(b, p.fields)
	return p, err
}
