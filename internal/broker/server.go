package broker

import (
	"errors"
	"fmt"

	"cellbricks/internal/billing"
	"cellbricks/internal/obs"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// Server exposes a Brokerd over the wire protocol (the real-socket
// deployment: brokerd runs in the cloud, AGWs and UEs reach it over TCP).
type Server struct {
	B   *Brokerd
	srv *wire.Server

	tr *obs.Tracer
}

// Serve starts the broker's wire server on addr.
func Serve(b *Brokerd, addr string) (*Server, error) {
	return ServeTraced(b, addr, nil)
}

// ServeTraced starts the broker's wire server with causal tracing: requests
// whose frame header carries a span context get a broker-side child span.
// tr may be nil, in which case this is identical to Serve.
func ServeTraced(b *Brokerd, addr string, tr *obs.Tracer) (*Server, error) {
	s := &Server{B: b, tr: tr}
	srv, err := wire.NewServerCtx(addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handle(sc obs.SpanContext, msgType byte, payload []byte) (byte, []byte, error) {
	switch msgType {
	case wire.TypeSAPAuthRequest:
		req, err := sap.UnmarshalAuthReqT(payload)
		if err != nil {
			return 0, nil, err
		}
		var resp *sap.AuthResp
		if err := s.tr.Span(sc, "broker", "handle-auth", nil, func() (e error) {
			resp, e = s.B.HandleAuthRequest(req)
			return e
		}); err != nil {
			return 0, nil, err
		}
		return wire.TypeSAPAuthResponse, resp.Marshal(), nil
	case wire.TypeReportUpload:
		env, err := billing.UnmarshalSealedReport(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.tr.Span(sc, "broker", "ingest-report", nil, func() error {
			_, e := s.B.HandleReport(env)
			return e
		}); errors.Is(err, billing.ErrMustSign) {
			return wire.TypeReportMustSign, nil, nil
		} else if err != nil {
			return 0, nil, err
		}
		return wire.TypeReportAck, nil, nil
	case wire.TypeSAPReceiptRequest:
		req, err := sap.UnmarshalReceiptReq(payload)
		if err != nil {
			return 0, nil, err
		}
		var resp *sap.ReceiptResp
		if err := s.tr.Span(sc, "broker", "handle-receipt", nil, func() (e error) {
			resp, e = s.B.HandleReceipt(req)
			return e
		}); err != nil {
			return 0, nil, err
		}
		return wire.TypeSAPReceiptResponse, resp.Marshal(), nil
	default:
		return 0, nil, fmt.Errorf("broker: unexpected message type %d", msgType)
	}
}

// Client is a wire-protocol client implementing epc.BrokerClient and
// epc.BrokerReceiptClient plus report upload; used by AGWs and (for UE
// reports) by the UE's data path.
// Long-lived and safe for concurrent use: each call borrows a connection
// from the client's wire.Pool.
type Client struct{ p *wire.Pool }

// DialClient connects to a brokerd server.
func DialClient(addr string) (*Client, error) {
	p, err := wire.DialPool(addr)
	if err != nil {
		return nil, err
	}
	return &Client{p: p}, nil
}

// Authenticate implements the SAP round trip.
func (c *Client) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	return c.AuthenticateCtx(obs.SpanContext{}, req)
}

// AuthenticateCtx is Authenticate with a span context propagated in the
// frame header (implements epc.BrokerClientCtx).
func (c *Client) AuthenticateCtx(sc obs.SpanContext, req *sap.AuthReqT) (*sap.AuthResp, error) {
	_, reply, err := c.p.Call(wire.TypeSAPAuthRequest, sc, req.Marshal())
	if err != nil {
		return nil, err
	}
	return sap.UnmarshalAuthResp(reply)
}

// RedeemReceipt implements epc.BrokerReceiptClient: one round trip that
// turns a bTelco's unreceipted grants into a signed receipt.
func (c *Client) RedeemReceipt(req *sap.ReceiptReq) (*sap.ReceiptResp, error) {
	_, reply, err := c.p.Call(wire.TypeSAPReceiptRequest, obs.SpanContext{}, req.Marshal())
	if err != nil {
		return nil, err
	}
	return sap.UnmarshalReceiptResp(reply)
}

// UploadReport delivers one sealed traffic report. billing.ErrMustSign is
// the broker's typed refusal of a MAC'd one (billing.Stream.Upload answers
// it); any other refusal arrives as the wire's error text.
func (c *Client) UploadReport(env *billing.SealedReport) error {
	typ, _, err := c.p.Call(wire.TypeReportUpload, obs.SpanContext{}, env.Marshal())
	if err == nil && typ == wire.TypeReportMustSign {
		return billing.ErrMustSign
	}
	return err
}

// Close closes the client's idle connections.
func (c *Client) Close() error { return c.p.Close() }

// Local is the in-process counterpart of Client: the same epc.BrokerClient
// and epc.BrokerReceiptClient, as direct calls into B with no codec or
// socket between, for an AGW that shares a process with its broker.
type Local struct{ B *Brokerd }

// Authenticate implements the SAP round trip.
func (c Local) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	return c.B.HandleAuthRequest(req)
}

// RedeemReceipt implements the receipt exchange.
func (c Local) RedeemReceipt(req *sap.ReceiptReq) (*sap.ReceiptResp, error) {
	return c.B.HandleReceipt(req)
}
