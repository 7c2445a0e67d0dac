package epc

import (
	"fmt"

	"cellbricks/internal/aka"
	"cellbricks/internal/codec"
	"cellbricks/internal/wire"
)

// NASServer exposes an AGW's NAS interface over the wire protocol: the UE
// (srsUE stand-in) connects over TCP where the radio + S1 would be. Each
// uplink frame carries the RAN-level identifier so the AGW can key its
// session table.
type NASServer struct {
	G   *AGW
	srv *wire.Server
}

// ServeNAS starts the AGW's UE-facing server on addr.
func ServeNAS(g *AGW, addr string) (*NASServer, error) {
	s := &NASServer{G: g}
	srv, err := wire.NewServer(addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Addr returns the bound address.
func (s *NASServer) Addr() string { return s.srv.Addr() }

// Close shuts the server down.
func (s *NASServer) Close() error { return s.srv.Close() }

func (s *NASServer) handle(msgType byte, payload []byte) (byte, []byte, error) {
	if msgType != wire.TypeNAS {
		return 0, nil, fmt.Errorf("epc: unexpected message type %d", msgType)
	}
	var call nasCall
	if err := codec.Decode(payload, call.fields); err != nil {
		return 0, nil, err
	}
	reply, err := s.G.HandleNAS(call.ranID, call.envelope)
	if err != nil {
		return 0, nil, err
	}
	return wire.TypeNASReply, reply, nil
}

// nasCall is the UE->AGW wire call: a NAS envelope and the RAN identifier
// it came in on. Read, the envelope aliases the request frame, which lives
// as long as the handler's call (wire.Handler): HandleNAS keeps none of it,
// since the NAS decoders copy what a message keeps.
type nasCall struct {
	ranID    string
	envelope []byte
}

func (m *nasCall) fields(c codec.Coder) codec.Coder {
	c.String(&m.ranID)
	c.View(&m.envelope)
	return c
}

// EncodeNASCall frames a NAS envelope with its RAN identifier for the
// UE->AGW wire call.
func EncodeNASCall(ranID string, envelope []byte) []byte {
	call := nasCall{ranID, envelope}
	return codec.Encode(call.fields)
}

// SDBServer exposes a SubscriberDB over the wire protocol (the S6A-like
// northbound the baseline AGW calls twice per attach).
type SDBServer struct {
	DB  *SubscriberDB
	srv *wire.Server
}

// ServeSDB starts the subscriber database server on addr.
func ServeSDB(db *SubscriberDB, addr string) (*SDBServer, error) {
	s := &SDBServer{DB: db}
	srv, err := wire.NewServer(addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Addr returns the bound address.
func (s *SDBServer) Addr() string { return s.srv.Addr() }

// Close shuts the server down.
func (s *SDBServer) Close() error { return s.srv.Close() }

func (s *SDBServer) handle(msgType byte, payload []byte) (byte, []byte, error) {
	switch msgType {
	case wire.TypeAIR:
		v, err := s.DB.AuthInfo(string(payload))
		if err != nil {
			return 0, nil, err
		}
		return wire.TypeAIA, MarshalVector(v), nil
	case wire.TypeULR:
		p, err := s.DB.UpdateLocation(string(payload))
		if err != nil {
			return 0, nil, err
		}
		return wire.TypeULA, MarshalProfile(p), nil
	default:
		return 0, nil, fmt.Errorf("epc: unexpected message type %d", msgType)
	}
}

// SDBClient is a wire-protocol SubscriberClient.
type SDBClient struct{ C *wire.Client }

// DialSDB connects to a subscriber database server.
func DialSDB(addr string) (*SDBClient, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &SDBClient{C: c}, nil
}

// AuthInfo implements SubscriberClient.
func (c *SDBClient) AuthInfo(imsi string) (aka.Vector, error) {
	_, reply, err := c.C.Call(wire.TypeAIR, []byte(imsi))
	if err != nil {
		return aka.Vector{}, err
	}
	return UnmarshalVector(reply)
}

// UpdateLocation implements SubscriberClient.
func (c *SDBClient) UpdateLocation(imsi string) (SubscriberProfile, error) {
	_, reply, err := c.C.Call(wire.TypeULR, []byte(imsi))
	if err != nil {
		return SubscriberProfile{}, err
	}
	return UnmarshalProfile(reply)
}

// Close closes the connection.
func (c *SDBClient) Close() error { return c.C.Close() }
