package sap

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
)

// UEState holds the small static parameter set SAP requires at the UE:
// "U's key pairs and B's public key. This state can be embedded in the
// U's SIM card."
type UEState struct {
	IDU       string // broker-assigned identifier (digest of pkU by default)
	IDB       string
	Key       *pki.KeyPair
	BrokerPub pki.PublicIdentity

	// ticket is the *pki.Ticket the broker's last grant carried (DESIGN.md
	// §2.8), or nil: NewAttachRequest takes it, and only a verified grant
	// puts the next one back — or ReclaimTicket the one a never-opened
	// request took. An atomic.Value and not a mutex, so that callers which
	// build or copy a UEState as a plain struct keep working; a copy forks
	// the one ticket it holds.
	ticket atomic.Value
}

// PendingAttach is the UE-side state for one in-flight attach. Req is the
// request it was created with: until the broker consumes the nonce, those
// bytes can be sent to IDT again instead of sealing and signing anew.
// Sealer is the exchange authVec was sealed on: authRespU comes back on
// it, and the session's billing reports ride it to the broker. No other
// attach seals on it, and the one that may share its prefix is the attach
// its ticket is reclaimed for (ReclaimTicket).
type PendingAttach struct {
	IDT    string
	Nonce  [NonceSize]byte
	Req    *AuthReqU
	Sealer *pki.Sealer

	// spent is the ticket Sealer rides, nil for a signed request: what
	// ReclaimTicket hands back.
	spent *pki.Ticket
	// kept is set once this attach has armed a ticket in the UEState — the
	// one its response carried, or its own handed back — so neither a
	// replayed response nor a second reclaim arms one twice.
	kept atomic.Bool
}

// NewAttachRequest runs UE procedures 1–4 of Fig. 2 for bTelco idT. With a
// ticket in hand it spends it: authVec is sealed on the ticket's exchange
// and goes out unsigned — no keygen, no ECDH, no signature. Without one
// (first contact, or after any attach that did not end in a grant) it is
// the full signed handshake on a fresh X25519 exchange.
func (u *UEState) NewAttachRequest(idT string) (*AuthReqU, *PendingAttach, error) {
	nonce, err := pki.NewNonce()
	if err != nil {
		return nil, nil, err
	}
	vec := AuthVec{IDU: u.IDU, IDB: u.IDB, IDT: idT, Nonce: nonce}
	var sealer *pki.Sealer
	ticket, _ := u.ticket.Swap((*pki.Ticket)(nil)).(*pki.Ticket)
	if ticket != nil {
		sealer, err = pki.TicketSealer(*ticket)
	} else {
		sealer, err = pki.NewSealer(u.BrokerPub)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sap: seal authVec: %w", err)
	}
	sealed, err := sealer.Seal(vec.marshal())
	if err != nil {
		return nil, nil, fmt.Errorf("sap: seal authVec: %w", err)
	}
	req := &AuthReqU{IDB: u.IDB, SealedVec: sealed}
	if ticket == nil {
		req.Sig = u.Key.Sign(sealed)
	}
	return req, &PendingAttach{IDT: idT, Nonce: nonce, Req: req, Sealer: sealer, spent: ticket}, nil
}

// ReclaimTicket hands back the ticket p spent, if the UE holds none (a
// newer ticket wins; a signed p has none), and reports whether it did. The
// caller vouches that no broker opened p's request — one that sheds with a
// typed retry-after hint has not (DESIGN.md §2.4) — and that p is never
// sent again. Nothing comes back twice, or after p's response armed a
// ticket (DESIGN.md §2.8).
func (u *UEState) ReclaimTicket(p *PendingAttach) bool {
	if p == nil || p.spent == nil || !p.kept.CompareAndSwap(false, true) {
		return false
	}
	return u.ticket.CompareAndSwap((*pki.Ticket)(nil), p.spent)
}

// HandleResponse runs UE procedures 5–6 of Fig. 2: authenticate authRespU
// by opening it on p's own exchange — a key only this UE, which drew p's
// ephemeral key or holds p's ticket, and the broker can form, so a response
// to any other attach, or anybody else's, fails here — check the echoed
// nonce and bTelco identity, and return ss for NAS security-context setup
// along with the broker-assigned session reference the UE labels its
// billing reports with. Repeatable: p's request state is read, never
// consumed; the ticket in the response is kept by the first call that
// accepts it.
func (u *UEState) HandleResponse(p *PendingAttach, resp *AuthRespU) (nas.MasterKey, string, error) {
	var zero nas.MasterKey
	if resp == nil || p == nil || p.Sealer == nil {
		return zero, "", ErrBadRequest
	}
	pt, err := p.Sealer.OpenReply(resp.Sealed)
	if err != nil {
		return zero, "", fmt.Errorf("sap: authRespU decrypt: %w", err)
	}
	var inner innerRespU
	if err := inner.unmarshal(pt); err != nil {
		return zero, "", err
	}
	if inner.Nonce != p.Nonce {
		return zero, "", ErrNonceMismatch
	}
	if inner.IDT != p.IDT {
		return zero, "", ErrWrongTelco
	}
	if inner.IDU != u.IDU {
		return zero, "", fmt.Errorf("%w: response for %q", ErrBadRequest, inner.IDU)
	}
	if p.kept.CompareAndSwap(false, true) {
		next := inner.Ticket // a 64-byte copy, so inner stays on the stack
		u.ticket.Store(&next)
	}
	return inner.SS, inner.URef, nil
}

// TelcoState is the bTelco side of SAP: a certified key pair plus the
// service terms it advertises. A bTelco needs nothing else — "only a
// certified public key and an ability to settle payments". What it keeps
// beyond that it learns from brokers and can lose: a resident sealer and,
// after one signed handshake, a pass per broker (pass.go).
type TelcoState struct {
	IDT   string
	Key   *pki.KeyPair
	Cert  *pki.Certificate
	Terms ServiceTerms

	toBroker pki.Sealers
	brokers  brokerRels
}

// SealReport seals one billing report for the broker brokerPub names, on
// the bTelco's resident exchange with it: the one place a bTelco's report
// is authenticated (DESIGN.md §2.10). Holding that broker's pass under its
// current certificate it MACs the report on the relationship's stream, and
// every 256th carries a signed checkpoint; otherwise — no grant from that
// broker yet, DropPasses, a renewed certificate — it signs.
func (t *TelcoState) SealReport(brokerPub pki.PublicIdentity, r *billing.Report) (*billing.SealedReport, error) {
	return t.report(brokerPub, r, nil)
}

// UploadReport is SealReport with the way to the broker handed in: a MAC'd
// report the broker refuses with billing.ErrMustSign — it restarted and
// holds no pass until this bTelco's next grant, say — goes out again
// signed (billing.Stream.Upload).
func (t *TelcoState) UploadReport(brokerPub pki.PublicIdentity, r *billing.Report, up func(*billing.SealedReport) error) error {
	_, err := t.report(brokerPub, r, up)
	return err
}

// report seals r and returns it, or with a way to the broker uploads it
// instead. A broker that never granted through this bTelco has no stream,
// and no stream signs.
func (t *TelcoState) report(brokerPub pki.PublicIdentity, r *billing.Report, up func(*billing.SealedReport) error) (*billing.SealedReport, error) {
	sealer, err := t.toBroker.To(brokerPub)
	if err != nil {
		return nil, err
	}
	stream, pass, held := t.brokers.reportStream(brokerPub.SigPub, t.Cert)
	var mac *pki.Ticket
	if held {
		mac = &pass
	}
	if up == nil {
		return stream.Seal(r, t.Key, sealer, mac)
	}
	return nil, stream.Upload(r, t.Key, sealer, mac, up)
}

// ForwardRequest runs the bTelco's first procedure (Fig. 3 top): augment
// the UE request with terms, sign, and produce the message for the broker.
// Holding a pass for that broker it writes a 32-byte MAC where the
// signature goes (DESIGN.md §2.9); the first request to a broker, and the
// one after DropPasses, is the paper's.
func (t *TelcoState) ForwardRequest(reqU *AuthReqU) (*AuthReqT, error) {
	if reqU == nil || len(reqU.SealedVec) == 0 {
		return nil, ErrBadRequest
	}
	m := &AuthReqT{ReqU: *reqU, IDT: t.IDT, Cert: t.Cert, Terms: t.Terms}
	m.Sig = t.authenticate(reqU.IDB, authReqMACLabel, m.signedBytes())
	return m, nil
}

// Grant is what the bTelco extracts from an approved response: the proof
// of authorization plus everything needed to serve the UE.
type Grant struct {
	URef   string // opaque session reference for the (still anonymous) UE
	SS     nas.MasterKey
	Params qos.Params
	LI     bool
}

// HandleResponse runs the bTelco's second procedure: authenticate the
// broker, decrypt the grant, and sanity check that it names this bTelco.
// Each mode authenticates itself. A signed authRespT is verified under
// brokerPub and opened with the certified box key, and the pass inside it is
// kept. An unsigned one is opened only under a pass held from that very
// brokerPub — a key nobody but that broker derives — so stripping a
// signature gains nothing, and its URef joins the grants awaiting a receipt.
// A denial for a refused MAC drops every pass (ErrStalePass). Repeatable on
// the same inputs.
func (t *TelcoState) HandleResponse(brokerPub pki.PublicIdentity, resp *AuthResp) (*Grant, *AuthRespU, error) {
	if resp == nil {
		return nil, nil, ErrBadRequest
	}
	if !resp.Granted {
		if resp.Cause == causeTelcoMAC {
			t.DropPasses()
			return nil, nil, fmt.Errorf("%w: %w", ErrDenied, ErrStalePass)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrDenied, resp.Cause)
	}
	var pt []byte
	var err error
	macd, rel := len(resp.T.Sig) == 0, 0
	if macd {
		var opener *pki.Sealer
		if opener, rel, err = t.brokers.openerFor(brokerPub.SigPub); err != nil {
			return nil, nil, fmt.Errorf("sap: authRespT signature: %w", err)
		}
		pt, err = opener.OpenReply(resp.T.Sealed)
	} else {
		if err := brokerPub.Verify(resp.T.Sealed, resp.T.Sig); err != nil {
			return nil, nil, fmt.Errorf("sap: authRespT signature: %w", err)
		}
		pt, err = t.Key.Open(resp.T.Sealed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sap: authRespT decrypt: %w", err)
	}
	var inner innerRespT
	if err := inner.unmarshal(pt); err != nil {
		return nil, nil, err
	}
	if inner.IDT != t.IDT {
		return nil, nil, ErrWrongTelco
	}
	if err := inner.Params.Validate(t.Terms.Cap); err != nil {
		return nil, nil, fmt.Errorf("sap: broker qosInfo outside capability: %w", err)
	}
	if macd {
		t.brokers.noteGrant(rel, inner.URef)
	} else if len(inner.Pass) != 0 {
		t.brokers.learn(inner.IDB, brokerPub.SigPub, t.Cert, inner.Pass)
	}
	return &Grant{URef: inner.URef, SS: inner.SS, Params: inner.Params, LI: inner.LI}, &resp.U, nil
}

// Authorizer is the broker's pluggable policy: given the authenticated
// user, the bTelco and its terms, decide admission and pick qosInfo. The
// paper leaves this policy "open to innovation".
type Authorizer interface {
	Authorize(idU, idT string, terms ServiceTerms) (qos.Params, error)
}

// AuthorizerFunc adapts a function to Authorizer.
type AuthorizerFunc func(idU, idT string, terms ServiceTerms) (qos.Params, error)

// Authorize implements Authorizer.
func (f AuthorizerFunc) Authorize(idU, idT string, terms ServiceTerms) (qos.Params, error) {
	return f(idU, idT, terms)
}

// AcceptAll authorizes every authenticated request with the bTelco's
// capability clamped around the broker's default parameter choice.
func AcceptAll() Authorizer {
	return AuthorizerFunc(func(_, _ string, terms ServiceTerms) (qos.Params, error) {
		return qos.DefaultParams().Clamp(terms.Cap), nil
	})
}

// BrokerState is the broker side of SAP: its key pair, the CA trust
// anchor for bTelco certificates, the registry of user keys it issued,
// a replay cache, and the authorization policy. Safe for concurrent
// request handling (the wire server serves each connection on its own
// goroutine).
type BrokerState struct {
	IDB    string
	Key    *pki.KeyPair
	Anchor pki.PublicIdentity
	Policy Authorizer

	mu      sync.Mutex
	users   map[string]pki.PublicIdentity // idU -> key the broker issued
	revoked map[string]bool
	nonces  *nonceCache
	certs   *pki.CertVerifier      // memoized bTelco certificate checks
	toTelco pki.Sealers            // resident sealers for authRespT, by certified key
	telcos  map[[32]byte]*telcoRel // passes and MAC-mode sealers, by certificate digest
	now     func() time.Time
}

// NewBrokerState builds a broker with the given trust anchor and policy.
// now supplies certificate-validation time (virtual or wall clock).
func NewBrokerState(idB string, key *pki.KeyPair, anchor pki.PublicIdentity, policy Authorizer, now func() time.Time) *BrokerState {
	if now == nil {
		now = time.Now
	}
	if policy == nil {
		policy = AcceptAll()
	}
	return &BrokerState{
		IDB:     idB,
		Key:     key,
		Anchor:  anchor,
		Policy:  policy,
		users:   make(map[string]pki.PublicIdentity),
		revoked: make(map[string]bool),
		nonces:  newNonceCache(1 << 16),
		certs:   pki.NewCertVerifier(anchor, 256),
		telcos:  make(map[[32]byte]*telcoRel),
		now:     now,
	}
}

// RegisterUser records a user key the broker issued. Returns the idU the
// UE should embed in authVec (the key digest).
func (b *BrokerState) RegisterUser(pub pki.PublicIdentity) string {
	id := pub.Digest()
	b.mu.Lock()
	b.users[id] = pub
	b.mu.Unlock()
	return id
}

// UserKey returns the key registered as idU — the one its baseband signs
// traffic reports with — or the zero identity.
func (b *BrokerState) UserKey(idU string) pki.PublicIdentity {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.users[idU]
}

// Users returns a copy of the user registry (snapshotting).
func (b *BrokerState) Users() map[string]pki.PublicIdentity {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.users)
}

// RevokeUser invalidates a user key: "B can revoke U's public key by
// simply invalidating the key in its database."
func (b *BrokerState) RevokeUser(idU string) {
	b.mu.Lock()
	b.revoked[idU] = true
	b.mu.Unlock()
}

// GrantRecord is the broker's bookkeeping for an approved attachment,
// used later to align billing reports.
type GrantRecord struct {
	URef  string
	IDU   string
	IDT   string
	SS    nas.MasterKey
	Terms ServiceTerms
	QoS   qos.Params
}

// HandleRequest runs the broker procedures of Fig. 3 (bottom): verify the
// bTelco certificate and signature, decrypt authVec, verify the UE
// signature and membership, enforce replay protection, run policy, mint
// ss, and emit the two sealed responses. The returned GrantRecord is nil
// when the response is a denial. It composes the three pipeline phases
// (Validate → Decide → Finalize, see pipeline.go) serially; brokerd
// drives the phases directly.
func (b *BrokerState) HandleRequest(req *AuthReqT) (*AuthResp, *GrantRecord, error) {
	v, err := b.Validate(req)
	if err != nil {
		return nil, nil, err
	}
	if v.DenyCause != "" {
		return &AuthResp{Granted: false, Cause: v.DenyCause}, nil, nil
	}
	params, cause := b.Decide(v, nil)
	if cause != "" {
		return &AuthResp{Granted: false, Cause: cause}, nil, nil
	}
	ss, uref, err := MintSession()
	if err != nil {
		return nil, nil, err
	}
	return b.Finalize(v, params, ss, uref)
}

func newURef() (string, error) {
	var b [12]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		return "", err
	}
	// Encoded through a stack buffer: the string is the only allocation.
	var dst [2 * len(b)]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:]), nil
}

// nonceCache is a bounded replay filter.
type nonceCache struct {
	seen  map[[NonceSize]byte]struct{}
	order [][NonceSize]byte
	max   int
}

func newNonceCache(max int) *nonceCache {
	return &nonceCache{seen: make(map[[NonceSize]byte]struct{}), max: max}
}

// add records a nonce, reporting false when it was already present.
func (c *nonceCache) add(n [NonceSize]byte) bool {
	if _, dup := c.seen[n]; dup {
		return false
	}
	c.seen[n] = struct{}{}
	c.order = append(c.order, n)
	if len(c.order) > c.max {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.seen, old)
	}
	return true
}
