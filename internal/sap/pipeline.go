package sap

import (
	"crypto/sha256"
	"fmt"

	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// This file splits broker-side SAP request handling into three phases so
// a broker holds its lock only for the one that touches state:
//
//   - Validate: every stateless crypto check — certificate, signatures,
//     decryption, membership. Safe to run for many requests concurrently.
//   - Decide: the order-sensitive state mutation — replay filter and
//     authorization policy. Must run in arrival order.
//   - Finalize: sealing the two responses, and signing authRespT, for a
//     pre-minted (ss, uref). Stateless again.
//
// HandleRequest (parties.go) composes the three phases for a standalone
// BrokerState; brokerd's HandleAuthRequest (broker/transaction.go) calls them
// itself, Decide under its lock and the other two outside it.

// ValidatedAuth is the outcome of the Validate phase for one request.
// When DenyCause is non-empty, validation already failed and Decide /
// Finalize must not run.
type ValidatedAuth struct {
	Req       *AuthReqT
	Vec       AuthVec
	DenyCause string

	// telco is the broker's resident view of the requesting bTelco — a
	// pointer, not the 64-byte pass, to keep this struct in its size class;
	// macd: the request was authenticated by a MAC under that pass rather
	// than by the bTelco's signature, so Finalize answers in kind there too.
	macd  bool
	telco *telcoRel
}

// TelcoPass returns the pass of the certificate the request carried — what
// its bTelco MACs under once a signed grant has handed it over. Valid on a
// request that passed the bTelco's authentication.
func (v *ValidatedAuth) TelcoPass() pki.Ticket { return v.telco.pass }

// Validate runs the stateless half of the broker procedures of Fig. 3:
// authenticate the bTelco (certificate, and signature or pass MAC), decrypt and
// authenticate the UE's vector — by the UE's signature, or for a request
// that carries none by the ticket its box rides (DESIGN.md §2.8) — and
// check membership. It touches no order-sensitive state (the replay filter
// and policy live in Decide), so any number of Validate calls may run
// concurrently. The error is non-nil only for a nil request; protocol
// failures land in DenyCause.
func (b *BrokerState) Validate(req *AuthReqT) (*ValidatedAuth, error) {
	if req == nil {
		return nil, ErrBadRequest
	}
	v := &ValidatedAuth{Req: req}
	deny := func(cause string) (*ValidatedAuth, error) {
		v.DenyCause = cause
		return v, nil
	}

	// 1. Authenticate the bTelco: certificate chains to the anchor, the
	// certificate's subject matches the claimed idT, and the augmented
	// request carries the certified key's signature — or, from a bTelco
	// this broker has granted before, a MAC under the pass of that
	// certificate (pass.go).
	var cause string
	var signed []byte
	var sum *[sha256.Size]byte
	if req.summed && len(req.Sig) == telcoMACSize {
		sum = &req.signedSum
	} else {
		signed = req.signedBytes()
	}
	if v.telco, v.macd, cause = b.authTelco(req.Cert, req.IDT, authReqMACLabel, signed, sum, req.Sig); cause != "" {
		return deny(cause)
	}

	// 2. Decrypt and authenticate the UE's vector.
	if req.ReqU.IDB != b.IDB {
		return deny("request addressed to a different broker")
	}
	pt, err := b.Key.Open(req.ReqU.SealedVec)
	if err != nil {
		return deny("authVec undecryptable")
	}
	v.Vec = AuthVec{IDB: b.IDB, IDT: req.IDT} // held: the decoder adopts them
	if err := v.Vec.unmarshal(pt); err != nil {
		return deny("authVec malformed")
	}
	if v.Vec.IDB != b.IDB {
		return deny("authVec names a different broker")
	}
	b.mu.Lock()
	pubU, ok := b.users[v.Vec.IDU]
	revoked := b.revoked[v.Vec.IDU]
	b.mu.Unlock()
	if !ok {
		return deny("unknown user")
	}
	if revoked {
		return deny("user key revoked")
	}
	// The vector is the UE's if the UE signed the box — or, when the request
	// carries no signature at all, if the box rides a ticket this broker
	// minted for that very idU inside an earlier grant: it opened, so the
	// sender holds the ticket's key, and the locator's tag says whose it is.
	if len(req.ReqU.Sig) == 0 {
		if !b.Key.TicketBound(req.ReqU.SealedVec, v.Vec.IDU) {
			return deny("UE ticket invalid")
		}
	} else if err := pubU.Verify(req.ReqU.SealedVec, req.ReqU.Sig); err != nil {
		return deny("UE signature invalid")
	}
	// The UE bound this request to a specific bTelco; the forwarding
	// bTelco must be that one (stops a malicious cell replaying a request
	// captured at another bTelco).
	if v.Vec.IDT != req.IDT {
		return deny("bTelco identity mismatch")
	}
	return v, nil
}

// Decide runs the order-sensitive phase for a validated request: the
// replay filter and the authorization policy. policy overrides b.Policy
// when non-nil. A non-empty cause is a denial.
func (b *BrokerState) Decide(v *ValidatedAuth, policy Authorizer) (qos.Params, string) {
	b.mu.Lock()
	fresh := b.nonces.add(v.Vec.Nonce)
	b.mu.Unlock()
	if !fresh {
		return qos.Params{}, "replayed nonce"
	}
	if policy == nil {
		policy = b.Policy
	}
	params, err := policy.Authorize(v.Vec.IDU, v.Req.IDT, v.Req.Terms)
	if err != nil {
		return qos.Params{}, "authorization denied: " + err.Error()
	}
	if err := params.Validate(v.Req.Terms.Cap); err != nil {
		return qos.Params{}, "policy selected unsupportable QoS: " + err.Error()
	}
	return params, ""
}

// MintSession draws a fresh shared secret and opaque session reference
// for a granted request. Thread-safe and order-free: brokerd mints under its
// lock, right after Decide grants.
func MintSession() (nas.MasterKey, string, error) {
	ss, err := NewMasterSecret()
	if err != nil {
		return ss, "", err
	}
	uref, err := newURef()
	if err != nil {
		return ss, "", err
	}
	return ss, uref, nil
}

// Finalize seals the two responses for a granted request using a
// pre-minted (ss, uref): authRespT on the broker's resident exchange with
// the certified bTelco, carrying the bTelco's pass, and signed; authRespU
// back on the exchange the UE's authVec arrived on, carrying the ticket for
// the UE's next attach, and never signed: whichever kind of exchange that
// is, its reply key is derivable by this broker and that UE alone. A MAC'd
// request's authRespT is sealed on the pass's reply direction, unsigned and
// without the pass: only this broker and the certificate's holder can form
// that key. Order-free and repeatable on one v (a fresh ticket each time), so
// a broker runs it outside the lock that ordered the decision. The grant's
// record comes back by value: a caller that keeps it takes it, and one that
// does not (brokerd, whose verifier row is the grant) costs no allocation.
func (b *BrokerState) Finalize(v *ValidatedAuth, params qos.Params, ss nas.MasterKey, uref string) (*AuthResp, GrantRecord, error) {
	req := v.Req
	respT := innerRespT{URef: uref, IDT: req.IDT, SS: ss, Params: params, LI: req.Terms.LawfulIntercept}
	var toTelco *pki.Sealer
	var err error
	if v.macd {
		toTelco, err = b.replySealer(v.telco)
	} else {
		respT.IDB, respT.Pass = []byte(b.IDB), v.telco.pass.Key[:]
		toTelco, err = b.toTelco.To(req.Cert.Identity)
	}
	if err != nil {
		return nil, GrantRecord{}, fmt.Errorf("sap: seal authRespT: %w", err)
	}
	sealedT, err := toTelco.Seal(respT.fields)
	if err != nil {
		return nil, GrantRecord{}, fmt.Errorf("sap: seal authRespT: %w", err)
	}
	respU := innerRespU{IDU: v.Vec.IDU, IDT: req.IDT, URef: uref, SS: ss, Nonce: v.Vec.Nonce}
	if respU.Ticket, err = b.Key.MintTicket(v.Vec.IDU); err != nil {
		return nil, GrantRecord{}, fmt.Errorf("sap: mint ticket: %w", err)
	}
	sealedU, err := b.Key.SealReply(req.ReqU.SealedVec, respU.fields)
	if err != nil {
		return nil, GrantRecord{}, fmt.Errorf("sap: seal authRespU: %w", err)
	}
	resp := &AuthResp{
		Granted: true,
		T:       AuthRespT{Sealed: sealedT},
		U:       AuthRespU{Sealed: sealedU},
	}
	if !v.macd {
		resp.T.Sig = b.Key.Sign(sealedT)
	}
	return resp, GrantRecord{URef: uref, IDU: v.Vec.IDU, IDT: req.IDT, SS: ss, Terms: req.Terms, QoS: params}, nil
}
