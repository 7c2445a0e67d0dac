package sap

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cellbricks/internal/billing"
	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
)

// The bTelco leg after first contact (DESIGN.md §2.9). A broker and a
// certified bTelco that have completed one signed handshake share a pass:
// pki.KeyPair.Pass of the bTelco's certificate digest, which B re-derives
// from the certificate every authReqT carries and T fetched inside that
// handshake's sealed and signed authRespT. Holding one, T authenticates
// authReqT with a 32-byte MAC where the 64-byte signature goes, and B
// answers in kind: authRespT sealed on the pass's reply direction, unsigned.
// What the dropped signature was — T's transferable proof that B authorized
// the attachment — comes back as one signed Receipt per receiptEvery grants.

const (
	// telcoMACSize is how the broker tells the mode of a bTelco message: a
	// Sig of exactly this length is a pass MAC, anything else is judged as
	// an Ed25519 signature.
	telcoMACSize = 32
	// receiptEvery is how many MAC-mode grants of one broker a bTelco lets
	// accumulate before it redeems them for a signed receipt. A constant and
	// not a field: nobody can state a better value for a deployment — one
	// signature per 256 attaches is already noise, and a bTelco that wants
	// less exposure on a given attach drops its pass.
	receiptEvery = 256
	// maxBrokerRels bounds a bTelco's table of broker relationships; a
	// broker past it is served by the signed handshake every time.
	maxBrokerRels = 16
	// keptReceipts bounds the receipts a TelcoState holds in memory.
	keptReceipts = 64

	causeTelcoMAC = "bTelco MAC invalid"

	// Purposes of a pass's MAC.
	authReqMACLabel = "cellbricks-pass-authreq-v1"
	receiptMACLabel = "cellbricks-pass-receipt-v1"
	// First field of what a receipt request and a receipt sign, so neither
	// can be mistaken for an authReqT or for the other.
	receiptReqLabel = "cellbricks-receipt-req-v1"
	receiptLabel    = "cellbricks-receipt-v1"
)

// ErrStalePass is the broker refusing a pass MAC: its key, or this bTelco's
// certificate, changed since the pass was fetched — or somebody forged the
// denial. Either way the bTelco now holds no pass, the refusal came before
// the broker's replay filter, and the same authReqU can be forwarded again,
// signed.
var ErrStalePass = errors.New(causeTelcoMAC)

// ErrReceiptRefused is the broker declining to sign a receipt.
var ErrReceiptRefused = errors.New("sap: receipt refused")

// brokerRel is a bTelco's side of its relationship with one broker: the
// pass, if it holds one, and the MAC-mode grants no receipt covers yet.
type brokerRel struct {
	idB string
	pub [ed25519.PublicKeySize]byte // the broker signing key the pass came from
	// cert is the certificate the pass was fetched under; nil = no pass. A
	// renewed Cert has another digest, hence another pass.
	cert   *pki.Certificate
	key    [32]byte
	opener *pki.Sealer // opens MAC-mode authRespT; built at the first one

	urefs    []string // ring of at most receiptEvery; urefs[head] is the oldest once full
	head     int
	receipts []*Receipt

	// reports is the bTelco's billing stream toward this broker (DESIGN.md
	// §2.10), made at the first report and kept through DropPasses, so a
	// checkpoint covers MAC'd reports from before and after one.
	reports *billing.Stream
}

// brokerRels is the table: few entries, found by idB when forwarding and by
// broker key when a response comes back, unique in both. Entries are never
// removed, so an index stays valid. The zero value is ready.
type brokerRels struct {
	mu   sync.Mutex
	rels []brokerRel
	buf  []byte // scratch: the span authenticate MACs or signs; a receipt request's is the largest, ≈ 7 KiB
}

func (rs *brokerRels) byIDB(idB string) *brokerRel {
	for i := range rs.rels {
		if rs.rels[i].idB == idB {
			return &rs.rels[i]
		}
	}
	return nil
}

func (rs *brokerRels) byPub(pub []byte) (*brokerRel, int) {
	for i := range rs.rels {
		if string(rs.rels[i].pub[:]) == string(pub) {
			return &rs.rels[i], i
		}
	}
	return nil, -1
}

// authenticate produces the Sig of a message from t to broker idB, whose
// signed span signed lists: a MAC under the pass t holds for idB under its
// current certificate, or else t's signature. The span is encoded in the
// table's buffer, so both run under its lock: a MAC is a fraction of a
// microsecond, and a signature is first contact with idB.
func (t *TelcoState) authenticate(idB, macLabel string, signed func(codec.Coder) codec.Coder) []byte {
	rs := &t.brokers
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.buf = codec.Reencode(rs.buf, signed)
	if r := rs.byIDB(idB); r != nil && r.cert != nil && r.cert == t.Cert {
		pass := pki.Ticket{Key: r.key}
		tag := pass.Tag(macLabel, rs.buf)
		return tag[:]
	}
	return t.Key.Sign(rs.buf)
}

// learn stores the pass a signed grant carried. The first pass per idB
// wins, and per broker key: a broker naming somebody else's idB cannot
// displace that broker's pass, and a response is opened under one pass only.
func (rs *brokerRels) learn(idB, pub []byte, cert *pki.Certificate, key []byte) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r := rs.byIDB(string(idB))
	if r != nil && r.cert != nil || len(pub) != ed25519.PublicKeySize {
		return
	}
	if p, _ := rs.byPub(pub); p != nil && p != r {
		return
	}
	if r == nil {
		if len(rs.rels) >= maxBrokerRels {
			return
		}
		rs.rels = append(rs.rels, brokerRel{idB: string(idB)})
		r = &rs.rels[len(rs.rels)-1]
	}
	r.cert, r.opener = cert, nil
	copy(r.pub[:], pub)
	copy(r.key[:], key)
}

// reportStream returns the billing stream toward the broker pub names (nil:
// that broker never granted through this bTelco) and, when a pass is held
// under cert, the pass to MAC reports with.
func (rs *brokerRels) reportStream(pub []byte, cert *pki.Certificate) (stream *billing.Stream, pass pki.Ticket, held bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, _ := rs.byPub(pub)
	if r == nil {
		return nil, pass, false
	}
	if r.reports == nil {
		r.reports = new(billing.Stream)
	}
	if held = r.cert != nil && r.cert == cert; held {
		pass.Key = r.key
	}
	return r.reports, pass, held
}

// openerFor returns what opens a MAC-mode authRespT from the broker pub
// names, and that relationship's index for noteGrant.
func (rs *brokerRels) openerFor(pub []byte) (*pki.Sealer, int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, i := rs.byPub(pub)
	if r == nil || r.cert == nil {
		return nil, 0, fmt.Errorf("%w: unsigned, and no pass from this broker", pki.ErrBadSignature)
	}
	if r.opener == nil {
		var err error
		if r.opener, err = pki.TicketSealer(pki.Ticket{Locator: r.cert.Digest(), Key: r.key}); err != nil {
			return nil, 0, err
		}
	}
	return r.opener, i, nil
}

// noteGrant records a MAC-mode grant as awaiting a receipt; past
// receiptEvery the oldest is forgotten.
func (rs *brokerRels) noteGrant(i int, uref string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r := &rs.rels[i]
	if len(r.urefs) < receiptEvery {
		r.urefs = append(r.urefs, uref)
		return
	}
	r.urefs[r.head] = uref
	r.head = (r.head + 1) % receiptEvery
}

// DropPasses forgets every pass the bTelco holds, so its next request to
// each broker is the signed handshake — which fetches the pass again. It is
// what a refused MAC does, and how a bTelco takes the paper's per-attach
// proof when it wants one. Unreceipted grants stay redeemable.
func (t *TelcoState) DropPasses() {
	t.brokers.mu.Lock()
	defer t.brokers.mu.Unlock()
	for i := range t.brokers.rels {
		t.brokers.rels[i].cert, t.brokers.rels[i].opener = nil, nil
	}
}

// maxTelcoRels bounds the broker's resident view of certified bTelcos, like
// pki.CertVerifier's cache beside it.
const maxTelcoRels = 256

// telcoRel is the broker's resident view of one certificate's holder: the
// pass, and the sealer of its reply direction once a MAC'd request has
// asked for one. A cache of pure functions of the broker's seed and the
// certificate digest — a restart, or an eviction, loses nothing.
type telcoRel struct {
	pass  pki.Ticket
	reply *pki.Sealer
}

// telcoRelFor returns the resident view for a verified certificate's digest.
func (b *BrokerState) telcoRelFor(digest [32]byte) *telcoRel {
	b.mu.Lock()
	defer b.mu.Unlock()
	rel := b.telcos[digest]
	if rel == nil {
		if len(b.telcos) >= maxTelcoRels {
			for k := range b.telcos {
				delete(b.telcos, k)
				break
			}
		}
		rel = &telcoRel{pass: b.Key.Pass(digest)}
		b.telcos[digest] = rel
	}
	return rel
}

// replySealer returns what seals a MAC-mode authRespT for rel's bTelco.
func (b *BrokerState) replySealer(rel *telcoRel) (*pki.Sealer, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rel.reply == nil {
		var err error
		if rel.reply, err = pki.TicketSealer(rel.pass.Reply()); err != nil {
			return nil, err
		}
	}
	return rel.reply, nil
}

// authTelco authenticates msg as sent by the bTelco idT that cert
// certifies: the chain, validity window, role and subject checks, then —
// by the length of sig — a MAC under the pass this broker derives for that
// certificate, or the certified key's signature. A caller holding msg's
// SHA-256 passes it as sum, and msg may then be nil for a MAC-length sig.
// It returns the resident view of that bTelco either way. The certificate
// check is memoized: every message from one bTelco carries the same
// certificate, so only the first pays the Ed25519 verification (expiry is
// still enforced per call).
func (b *BrokerState) authTelco(cert *pki.Certificate, idT, macLabel string, msg []byte, sum *[sha256.Size]byte, sig []byte) (rel *telcoRel, macd bool, cause string) {
	digest, err := b.certs.VerifyDigest(cert, b.now())
	if err != nil {
		return nil, false, "bTelco certificate invalid"
	}
	if cert.Role != telcoRole || cert.Subject != idT {
		return nil, false, "bTelco certificate subject/role mismatch"
	}
	rel = b.telcoRelFor(digest)
	if macd = len(sig) == telcoMACSize; macd {
		if sum == nil {
			s := sha256.Sum256(msg)
			sum = &s
		}
		if tag := rel.pass.TagDigest(macLabel, sum); subtle.ConstantTimeCompare(tag[:], sig) != 1 {
			return nil, true, causeTelcoMAC
		}
	} else if err := cert.Identity.Verify(msg, sig); err != nil {
		return nil, false, "bTelco signature invalid"
	}
	return rel, macd, ""
}

// Receipt is the broker's signed statement that it authorized, at bTelco
// IDT, every session URefs names: the transferable proof a signed authRespT
// was, for up to receiptEvery MAC-mode grants at once.
type Receipt struct {
	IDB   string
	IDT   string
	URefs []string
	Sig   []byte // broker signature over signedBytes
}

func (r *Receipt) signedBytes() []byte {
	return codec.Encode(func(c codec.Coder) codec.Coder { return receiptSigned(c, receiptLabel, r.IDB, r.IDT, &r.URefs) })
}

// receiptSigned lists what a receipt and a receipt request sign, apart by
// label.
func receiptSigned(c codec.Coder, label, idB, idT string, urefs *[]string) codec.Coder {
	c.String(&label)
	c.String(&idB)
	c.String(&idT)
	return urefFields(c, urefs)
}

// VerifyReceipt is what a third party runs: r is brokerPub's statement, and
// it covers uref.
func VerifyReceipt(brokerPub pki.PublicIdentity, r *Receipt, uref string) error {
	if r == nil {
		return ErrBadRequest
	}
	if err := brokerPub.Verify(r.signedBytes(), r.Sig); err != nil {
		return fmt.Errorf("sap: receipt signature: %w", err)
	}
	if !slices.Contains(r.URefs, uref) {
		return fmt.Errorf("%w: receipt does not cover %s", ErrBadRequest, uref)
	}
	return nil
}

// ReceiptReq is a bTelco redeeming its unreceipted grants at broker IDB,
// authenticated exactly like an authReqT: certificate, and a pass MAC or a
// signature in Sig.
type ReceiptReq struct {
	IDB   string
	IDT   string
	Cert  *pki.Certificate
	URefs []string
	Sig   []byte
}

func (m *ReceiptReq) signed(c codec.Coder) codec.Coder {
	return receiptSigned(c, receiptReqLabel, m.IDB, m.IDT, &m.URefs)
}

func (m *ReceiptReq) signedBytes() []byte { return codec.Encode(m.signed) }

// ReceiptResp is the broker's answer: the receipt, or a refusal — which,
// when the broker has no grant for one of the URefs at that bTelco, names
// it in Disowned. Refusals are unauthenticated, like every SAP denial.
type ReceiptResp struct {
	Granted  bool
	Cause    string
	Disowned string
	Receipt  Receipt
}

// ReceiptDue reports whether the bTelco holds receiptEvery unreceipted
// MAC-mode grants of broker idB: time to redeem.
func (t *TelcoState) ReceiptDue(idB string) bool {
	t.brokers.mu.Lock()
	defer t.brokers.mu.Unlock()
	r := t.brokers.byIDB(idB)
	return r != nil && len(r.urefs) >= receiptEvery
}

// ReceiptRequest builds the request redeeming every unreceipted grant of
// broker idB, oldest first; nil when there is none.
func (t *TelcoState) ReceiptRequest(idB string) *ReceiptReq {
	t.brokers.mu.Lock()
	var urefs []string
	if r := t.brokers.byIDB(idB); r != nil && len(r.urefs) > 0 {
		urefs = append(append(make([]string, 0, len(r.urefs)), r.urefs[r.head:]...), r.urefs[:r.head]...)
	}
	t.brokers.mu.Unlock()
	if urefs == nil {
		return nil
	}
	m := &ReceiptReq{IDB: idB, IDT: t.IDT, Cert: t.Cert, URefs: urefs}
	m.Sig = t.authenticate(idB, receiptMACLabel, m.signed)
	return m
}

// AcceptReceipt handles the broker's answer to req. A receipt that verifies
// under brokerPub and covers nothing but what req asked for is kept, and
// the grants it covers stop counting as unreceipted. A refusal naming a
// URef of req takes that one out of the ring — the broker will not vouch
// for it, and it would block every later receipt — and is returned as
// ErrReceiptRefused; a refused MAC drops the passes like any other
// (ErrStalePass) and the caller may ask again, signed.
func (t *TelcoState) AcceptReceipt(brokerPub pki.PublicIdentity, req *ReceiptReq, resp *ReceiptResp) error {
	if req == nil || resp == nil {
		return ErrBadRequest
	}
	if !resp.Granted {
		switch {
		case resp.Cause == causeTelcoMAC:
			t.DropPasses()
			return fmt.Errorf("%w: %w", ErrReceiptRefused, ErrStalePass)
		case resp.Disowned != "" && slices.Contains(req.URefs, resp.Disowned):
			t.brokers.settle(req.IDB, []string{resp.Disowned})
		}
		return fmt.Errorf("%w: %s %s", ErrReceiptRefused, resp.Cause, resp.Disowned)
	}
	rc := &resp.Receipt
	if err := brokerPub.Verify(rc.signedBytes(), rc.Sig); err != nil {
		return fmt.Errorf("sap: receipt signature: %w", err)
	}
	if rc.IDB != req.IDB || rc.IDT != t.IDT || !slices.Equal(rc.URefs, req.URefs) {
		return fmt.Errorf("%w: receipt is not for this request", ErrBadRequest)
	}
	t.brokers.mu.Lock()
	defer t.brokers.mu.Unlock()
	// A duplicate of a receipt already kept settles nothing.
	if r := t.brokers.byIDB(req.IDB); r != nil && t.brokers.settleLocked(r, rc.URefs) {
		if len(r.receipts) >= keptReceipts {
			r.receipts = append(r.receipts[:0], r.receipts[1:]...)
		}
		r.receipts = append(r.receipts, rc)
	}
	return nil
}

// settle takes covered out of idB's ring of unreceipted grants.
func (rs *brokerRels) settle(idB string, covered []string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r := rs.byIDB(idB); r != nil {
		rs.settleLocked(r, covered)
	}
}

// settleLocked rebuilds r's ring, oldest first, without covered; it reports
// whether anything left.
func (rs *brokerRels) settleLocked(r *brokerRel, covered []string) bool {
	left := make([]string, 0, receiptEvery)
	for i := range r.urefs {
		if u := r.urefs[(r.head+i)%len(r.urefs)]; !slices.Contains(covered, u) {
			left = append(left, u)
		}
	}
	settled := len(left) < len(r.urefs)
	r.urefs, r.head = left, 0
	return settled
}

// Receipts returns the receipts held from broker idB, oldest first, and how
// many MAC-mode grants of that broker no receipt covers yet.
func (t *TelcoState) Receipts(idB string) (receipts []*Receipt, unreceipted int) {
	t.brokers.mu.Lock()
	defer t.brokers.mu.Unlock()
	if r := t.brokers.byIDB(idB); r != nil {
		return append(receipts, r.receipts...), len(r.urefs)
	}
	return nil, 0
}

// CheckReceiptReq authenticates a receipt request the way Validate
// authenticates an authReqT; a non-empty cause is a refusal. Whether the
// URefs are this bTelco's grants is for the caller, who keeps the records.
func (b *BrokerState) CheckReceiptReq(req *ReceiptReq) (cause string) {
	if req.IDB != b.IDB {
		return "request addressed to a different broker"
	}
	if len(req.URefs) == 0 {
		return "empty receipt request"
	}
	_, _, cause = b.authTelco(req.Cert, req.IDT, receiptMACLabel, req.signedBytes(), nil, req.Sig)
	return cause
}

// SignReceipt issues the receipt for grants the caller has checked.
func (b *BrokerState) SignReceipt(idT string, urefs []string) Receipt {
	r := Receipt{IDB: b.IDB, IDT: idT, URefs: urefs}
	r.Sig = b.Key.Sign(r.signedBytes())
	return r
}

// urefFields lists session references as receipts carry them.
func urefFields(c codec.Coder, urefs *[]string) codec.Coder {
	us := codec.List(&c, urefs, 1, receiptEvery, ErrBadRequest)
	for i := range us {
		c.String(&us[i])
	}
	return c
}

func (m *ReceiptReq) fields(c codec.Coder) codec.Coder {
	c.String(&m.IDB)
	c.String(&m.IDT)
	c = certFields(c, &m.Cert, m.IDT)
	c = urefFields(c, &m.URefs)
	c.Bytes(&m.Sig)
	return c
}

// Marshal encodes the request for the wire.
func (m *ReceiptReq) Marshal() []byte { return codec.Encode(m.fields) }

// UnmarshalReceiptReq decodes a receipt request.
func UnmarshalReceiptReq(b []byte) (*ReceiptReq, error) { return decode(b, new(ReceiptReq)) }

func (m *ReceiptResp) fields(c codec.Coder) codec.Coder {
	c.Bool(&m.Granted)
	c.String(&m.Cause)
	c.String(&m.Disowned)
	c.String(&m.Receipt.IDB)
	c.String(&m.Receipt.IDT)
	c = urefFields(c, &m.Receipt.URefs)
	c.Bytes(&m.Receipt.Sig)
	return c
}

// Marshal encodes the broker's answer for the wire.
func (m *ReceiptResp) Marshal() []byte { return codec.Encode(m.fields) }

// UnmarshalReceiptResp decodes a broker's answer.
func UnmarshalReceiptResp(b []byte) (*ReceiptResp, error) { return decode(b, new(ReceiptResp)) }
