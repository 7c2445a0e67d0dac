package ue

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/epc"
	"cellbricks/internal/nas"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// --- AttachFSM unit tests ---

func TestFSMRotatesCandidates(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 10}, 3, nil)
	want := []int{0, 1, 2, 0, 1}
	for i, w := range want {
		if got := m.Candidate(); got != w {
			t.Fatalf("attempt %d: candidate = %d, want %d", i, got, w)
		}
		if _, giveUp := m.Fail(errors.New("x")); giveUp {
			t.Fatalf("gave up at attempt %d", i)
		}
	}
	if m.Fallbacks() != 2 {
		t.Fatalf("fallbacks = %d, want 2 (two departures from candidate 0)", m.Fallbacks())
	}
}

var errFail = errors.New("attach failed")

func TestFSMAvoidSteersRotation(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{}, 4, nil)
	quarantined := map[int]bool{1: true, 2: true}
	m.SetAvoid(func(i int) bool { return quarantined[i] })
	if m.Candidate() != 0 {
		t.Fatalf("start candidate = %d, want 0", m.Candidate())
	}
	// Rotation must skip 1 and 2 straight to 3.
	m.Fail(errFail)
	if m.Candidate() != 3 {
		t.Fatalf("after fail: candidate = %d, want 3", m.Candidate())
	}
	m.Fail(errFail)
	if m.Candidate() != 0 {
		t.Fatalf("wrap: candidate = %d, want 0", m.Candidate())
	}
	// An avoided current candidate moves off immediately.
	quarantined[0] = true
	m.SetAvoid(func(i int) bool { return quarantined[i] })
	if m.Candidate() != 3 {
		t.Fatalf("SetAvoid did not move off avoided candidate: %d", m.Candidate())
	}
	// All avoided: filter is ignored rather than stranding the UE.
	quarantined[3] = true
	m.SetAvoid(func(i int) bool { return quarantined[i] })
	before := m.Candidate()
	m.Fail(errFail)
	if m.Candidate() != (before+1)%4 {
		t.Fatalf("all-avoided rotation broke: %d -> %d", before, m.Candidate())
	}
}

func TestWatchdogTripsOnStall(t *testing.T) {
	w := NewWatchdog(4 * time.Second)
	w.Arm(0, 0)
	if w.Observe(1*time.Second, 100) {
		t.Fatal("tripped while progressing")
	}
	if w.Observe(3*time.Second, 100) {
		t.Fatal("tripped before the window elapsed")
	}
	if !w.Observe(5*time.Second, 100) {
		t.Fatal("did not trip after a full stalled window")
	}
	if w.armed {
		t.Fatal("still armed after trip")
	}
	if w.Observe(20*time.Second, 100) {
		t.Fatal("disarmed watchdog observed a trip")
	}
	if w.trips != 1 {
		t.Fatalf("trips = %d, want 1", w.trips)
	}
	// Re-armed after a re-attach: progress resets the window.
	w.Arm(20*time.Second, 100)
	if w.Observe(23*time.Second, 200) {
		t.Fatal("tripped despite fresh progress")
	}
	if w.Observe(26*time.Second, 200) {
		t.Fatal("window must restart from last progress")
	}
	if !w.Observe(27*time.Second+time.Millisecond, 200) {
		t.Fatal("did not trip a window after last progress")
	}
}

func TestFSMBudgetExhaustion(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 3}, 2, nil)
	if _, giveUp := m.Fail(errors.New("a")); giveUp {
		t.Fatal("gave up after 1 failure with budget 3")
	}
	if _, giveUp := m.Fail(errors.New("b")); giveUp {
		t.Fatal("gave up after 2 failures with budget 3")
	}
	if _, giveUp := m.Fail(errors.New("c")); !giveUp {
		t.Fatal("did not give up after exhausting the budget")
	}
}

func TestFSMBackoffGrowsAndCaps(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 10, MaxBackoff: 800 * time.Millisecond}
	m := NewAttachFSM(pol, 1, nil)
	want := []time.Duration{200, 400, 800, 800, 800}
	for i, w := range want {
		d, giveUp := m.Fail(errors.New("x"))
		if giveUp {
			t.Fatalf("gave up at %d", i)
		}
		if d != w*time.Millisecond {
			t.Fatalf("failure %d: delay = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
}

// sheds are the two forms a typed shed reaches the machine in: bare, and
// wrapped as AttachSAP returns it.
func sheds(after time.Duration) []error {
	hint := &wire.RetryAfterError{After: after}
	return []error{hint, fmt.Errorf("%w: shed: %w", ErrRejected, hint)}
}

// A typed shed floors the delay at the hint, and never lowers it.
func TestFSMRetryAfterFloorsDelay(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 5}, 2, nil)
	for i, err := range sheds(2 * time.Second) {
		if d, _ := m.Fail(err); d < 2*time.Second {
			t.Fatalf("shed %d: delay %v ignored the 2s retry-after floor", i, d)
		}
	}
	if d, _ := m.Fail(&wire.RetryAfterError{After: time.Millisecond}); d != 800*time.Millisecond {
		t.Fatalf("delay %v after a 1ms hint, want the 800ms third backoff", d)
	}
}

// A typed shed is a wait, not a move: the bTelco that relayed it is alive
// and every candidate reaches the same broker, so the candidate stays —
// while any other failure still rotates.
func TestFSMShedKeepsCandidate(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 10}, 3, nil)
	if _, giveUp := m.Fail(errFail); giveUp || m.Candidate() != 1 {
		t.Fatalf("a plain failure: candidate %d (gave up %v), want a rotation to 1", m.Candidate(), giveUp)
	}
	for i, err := range sheds(time.Second) {
		if _, giveUp := m.Fail(err); giveUp || m.Candidate() != 1 {
			t.Fatalf("shed %d: candidate %d (gave up %v), want it kept at 1", i, m.Candidate(), giveUp)
		}
	}
	if m.Fail(errFail); m.Candidate() != 2 {
		t.Fatalf("a plain failure after sheds: candidate %d, want 2", m.Candidate())
	}
	if m.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", m.Fallbacks())
	}
}

// The avoid filter is live: a candidate it starts rejecting between sheds
// is left on the next shed, and sheds then keep the new one.
func TestFSMShedLeavesAvoidedCandidate(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 10}, 3, nil)
	quarantined := map[int]bool{}
	m.SetAvoid(func(i int) bool { return quarantined[i] })
	shed := sheds(time.Second)[1]
	if m.Fail(shed); m.Candidate() != 0 {
		t.Fatalf("shed at an allowed candidate moved to %d", m.Candidate())
	}
	quarantined[0] = true
	if m.Fail(shed); m.Candidate() != 1 {
		t.Fatalf("shed at a quarantined candidate: now %d, want 1", m.Candidate())
	}
	if m.Fail(shed); m.Candidate() != 1 || m.Fallbacks() != 1 {
		t.Fatalf("shed after the move: candidate %d, fallbacks %d; want 1 and 1", m.Candidate(), m.Fallbacks())
	}
}

// Sheds spend the attempt budget like any failure: a broker that never
// stops shedding ends in a give-up.
func TestFSMShedsExhaustBudget(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 3}, 2, nil)
	for i, err := range append(sheds(time.Second), sheds(time.Second)[0]) {
		if _, giveUp := m.Fail(err); giveUp != (i == 2) {
			t.Fatalf("shed %d: giveUp = %v", i+1, giveUp)
		}
	}
}

func TestFSMJitterDeterministic(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 8, JitterFrac: 0.4}
	collect := func(seed int64) []time.Duration {
		m := NewAttachFSM(pol, 2, rand.New(rand.NewSource(seed)))
		var ds []time.Duration
		for {
			d, giveUp := m.Fail(errors.New("x"))
			if giveUp {
				return ds
			}
			ds = append(ds, d)
		}
	}
	a, b := collect(5), collect(5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d: %v vs %v — jitter not seed-deterministic", i, a[i], b[i])
		}
	}
	c := collect(6)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestPolicyBudgetBoundsWorstCase(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 6, MaxBackoff: time.Second, JitterFrac: 0.5}
	budget := pol.Budget()
	m := NewAttachFSM(pol, 2, rand.New(rand.NewSource(1)))
	var total time.Duration
	for {
		d, giveUp := m.Fail(errors.New("x"))
		if giveUp {
			break
		}
		total += d
	}
	if total > budget {
		t.Fatalf("actual worst-case %v exceeds Budget() %v", total, budget)
	}
}

// --- the retry machine around AttachSAP, against a real control-plane stack ---

// retryWorld is a minimal broker + two-AGW control plane.
type retryWorld struct {
	brk    *broker.Brokerd
	agws   [2]*epc.AGW
	telcos [2]*sap.TelcoState
	cb     *sap.UEState
	down   [2]bool
}

type retryDirectory struct{ w *retryWorld }

type retryBrokerClient struct{ b *broker.Brokerd }

func (c retryBrokerClient) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	return c.b.HandleAuthRequest(req)
}

func (d retryDirectory) Lookup(idB string) (epc.BrokerClient, pki.PublicIdentity, error) {
	if idB != d.w.brk.ID() {
		return nil, pki.PublicIdentity{}, fmt.Errorf("unknown broker %q", idB)
	}
	return retryBrokerClient{d.w.brk}, d.w.brk.Public(), nil
}

func newRetryWorld(t *testing.T) *retryWorld {
	t.Helper()
	now := time.Unix(1_760_000_000, 0)
	ca, err := pki.NewCAFromSeed("rt-ca", bytes.Repeat([]byte{60}, 32))
	if err != nil {
		t.Fatal(err)
	}
	bk := testKey(t, 61)
	cfg := broker.DefaultConfig("broker.retry", bk, ca.Public())
	cfg.Now = func() time.Time { return now }
	cfg.MaxPricePerGB = 2 * retryPrice // a test denies an attach with overpriced
	w := &retryWorld{brk: broker.New(cfg)}

	uk := testKey(t, 62)
	idU := w.brk.RegisterUser(uk.Public())
	w.cb = &sap.UEState{IDU: idU, IDB: "broker.retry", Key: uk, BrokerPub: bk.Public()}

	for i := range w.telcos {
		tk := testKey(t, byte(63+i))
		id := fmt.Sprintf("rt-telco-%d", i)
		cert := ca.Issue(id, "btelco", tk.Public(), now.Add(-time.Hour), now.Add(time.Hour))
		w.telcos[i] = &sap.TelcoState{
			IDT: id, Key: tk, Cert: cert,
			Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: retryPrice},
		}
		w.agws[i] = epc.NewAGW(epc.AGWConfig{Telco: w.telcos[i], Brokers: retryDirectory{w}})
	}
	return w
}

// retryPrice is what every bTelco of a retry world advertises per GB.
const retryPrice = 1.0

// overpriced raises bTelco i's advertised price above the broker's
// MaxPricePerGB, so the broker's price gate denies the attaches through it,
// until the returned func restores retryPrice.
func (w *retryWorld) overpriced(i int) (restore func()) {
	w.telcos[i].Terms.PricePerGB = 4 * retryPrice
	return func() { w.telcos[i].Terms.PricePerGB = retryPrice }
}

// tx is bTelco i's NAS transport for one radio identity.
func (w *retryWorld) tx(i int, ranID string) NASTransport {
	return func(envelope []byte) ([]byte, error) {
		if w.down[i] {
			return nil, fmt.Errorf("btelco %d down", i)
		}
		return w.agws[i].HandleNAS(ranID, envelope)
	}
}

// retryAttach is the loop every emulated world runs on its own clock:
// AttachSAP against the machine's candidate, and its backoff on failure
// (sleep stands in for the clock). It returns the attachment, the
// candidate that served it and the machine, or the last attempt's error
// once the budget is spent. (The tests below are named after the
// synchronous driver this loop replaced.)
func (w *retryWorld) retryAttach(d *Device, pol RetryPolicy, sleep func(time.Duration)) (*Attachment, int, *AttachFSM, error) {
	fsm := NewAttachFSM(pol, len(w.telcos), nil)
	for {
		i := fsm.Candidate()
		a, err := d.AttachSAP(w.tx(i, fmt.Sprintf("%s-%d", d.RANID, i)), w.telcos[i].IDT)
		if err == nil {
			return a, i, fsm, nil
		}
		delay, giveUp := fsm.Fail(err)
		if giveUp {
			return nil, 0, fsm, err
		}
		sleep(delay)
	}
}

func TestAttachSAPRetryFallsBackToSecondary(t *testing.T) {
	w := newRetryWorld(t)
	w.down[0] = true // serving bTelco is dead
	d := NewDevice("rt-ue-1", nil, w.cb)
	var slept []time.Duration
	a, served, fsm, err := w.retryAttach(d, RetryPolicy{MaxAttempts: 4}, func(dur time.Duration) { slept = append(slept, dur) })
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if served != 1 {
		t.Fatalf("served by candidate %d, want the fallback (1)", served)
	}
	if a == nil || a.IP == "" {
		t.Fatalf("attachment = %+v", a)
	}
	if fsm.Attempts() != 1 || fsm.Fallbacks() != 1 {
		t.Fatalf("attempts=%d fallbacks=%d, want 1 and 1", fsm.Attempts(), fsm.Fallbacks())
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v, want exactly one backoff", slept)
	}
}

func TestAttachSAPRetryHonoursBrokerShed(t *testing.T) {
	w := newRetryWorld(t)
	w.brk.ShedLoad(time.Second)
	d := NewDevice("rt-ue-2", nil, w.cb)
	var slept []time.Duration
	sleep := func(dur time.Duration) {
		slept = append(slept, dur)
		// The broker recovers while the UE backs off.
		w.brk.Resume()
	}
	retransmits := mtr.retransmits.Value()
	_, served, fsm, err := w.retryAttach(d, RetryPolicy{MaxAttempts: 4}, sleep)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if fsm.Attempts() != 1 || served != 0 {
		t.Fatalf("attempts = %d, served by %d; want one shed, then a grant where it was shed", fsm.Attempts(), served)
	}
	if len(slept) != 1 || slept[0] < time.Second {
		t.Fatalf("backoff %v did not honour the broker's 1s retry-after hint", slept)
	}
	if got := mtr.retransmits.Value() - retransmits; got != 1 {
		t.Fatalf("ue_attach_retransmits_total moved by %d, want 1: the retry resends the shed request", got)
	}
	if w.brk.ShedCount() != 1 {
		t.Fatalf("ShedCount = %d, want 1", w.brk.ShedCount())
	}
}

func TestAttachSAPRetryBudgetExhausts(t *testing.T) {
	w := newRetryWorld(t)
	w.down[0], w.down[1] = true, true
	d := NewDevice("rt-ue-3", nil, w.cb)
	_, _, fsm, err := w.retryAttach(d, RetryPolicy{MaxAttempts: 3}, func(time.Duration) {})
	if err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("err = %v, want the last attempt's transport error", err)
	}
	if fsm.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", fsm.Attempts())
	}
}

// --- retransmitting a shed request ---

// recording wraps bTelco i's transport, keeping every uplink envelope.
func (w *retryWorld) recording(i int, ranID string, sent *[][]byte) NASTransport {
	tx := w.tx(i, ranID)
	return func(envelope []byte) ([]byte, error) {
		*sent = append(*sent, append([]byte(nil), envelope...))
		return tx(envelope)
	}
}

func TestAttachSAPRetransmitsShedRequest(t *testing.T) {
	w := newRetryWorld(t)
	d := NewDevice("rt-ue-4", nil, w.cb)
	var sent [][]byte
	tx := w.recording(0, "rt-ue-4", &sent)
	idT := w.telcos[0].IDT
	retransmits := mtr.retransmits.Value()

	w.brk.ShedLoad(40 * time.Millisecond)
	_, err := d.AttachSAP(tx, idT)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("attach at a shedding broker: err = %v, want the typed shed", err)
	}
	w.brk.Resume()
	if _, err := d.AttachSAP(tx, idT); err != nil {
		t.Fatalf("retransmitted attach: %v", err)
	}
	if !bytes.Equal(sent[0], sent[1]) {
		t.Fatal("attach after a shed built a new request instead of retransmitting the shed one")
	}
	if got := mtr.retransmits.Value() - retransmits; got != 1 {
		t.Fatalf("ue_attach_retransmits_total moved by %d, want 1", got)
	}

	// The grant consumed that request: the next attach builds a new one,
	// and the old bytes, replayed by hand, hit the broker's replay filter.
	if err := d.Detach(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AttachSAP(tx, idT); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sent[1], sent[len(sent)-1]) {
		t.Fatal("a request the broker consumed was sent again")
	}
	if got := mtr.retransmits.Value() - retransmits; got != 1 {
		t.Fatalf("ue_attach_retransmits_total moved by %d after an unshed attach, want still 1", got)
	}
	reply, err := w.agws[0].HandleNAS("rt-ue-4-replay", sent[1])
	if err != nil {
		t.Fatal(err)
	}
	msg, err := nas.Decode(reply[1:])
	if rej, ok := msg.(*nas.AttachReject); err != nil || !ok || !strings.Contains(rej.Cause, "replayed nonce") {
		t.Fatalf("replayed request: %#v (%v), want a replayed-nonce reject", msg, err)
	}
}

// Only the typed shed keeps a request: a transport error or a denial drops
// it, and the shelf holds at most one request per bTelco, maxShelved in all.
func TestAttachShelfDropsOnAnythingButShed(t *testing.T) {
	w := newRetryWorld(t)
	d := NewDevice("rt-ue-5", nil, w.cb)
	var sent [][]byte
	tx := w.recording(0, "rt-ue-5", &sent)
	idT := w.telcos[0].IDT

	w.down[0] = true
	if _, err := d.AttachSAP(tx, idT); err == nil {
		t.Fatal("attach through a dead bTelco succeeded")
	}
	w.down[0] = false
	w.brk.RevokeUser(w.cb.IDU)
	if _, err := d.AttachSAP(tx, idT); !errors.Is(err, ErrRejected) {
		t.Fatalf("attach of a revoked user: err = %v, want ErrRejected", err)
	}
	if _, err := d.AttachSAP(tx, idT); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if bytes.Equal(sent[0], sent[1]) || bytes.Equal(sent[1], sent[2]) {
		t.Fatal("a request was reused after a transport error or a denial")
	}
	if n := len(d.shelf.byTelco); n != 0 {
		t.Fatalf("%d requests shelved after non-shed failures", n)
	}

	var s AttachShelf
	shed := &wire.RetryAfterError{After: time.Second}
	for i := 0; i < 3*maxShelved; i++ {
		p, resent, err := s.Take(w.cb, fmt.Sprintf("telco-%d", i))
		if err != nil || resent {
			t.Fatalf("take %d: resent=%v err=%v", i, resent, err)
		}
		s.Settle(p, fmt.Errorf("%w: shed: %w", ErrRejected, shed))
		s.Settle(p, shed) // twice for one bTelco still holds one
		if len(s.byTelco) > maxShelved {
			t.Fatalf("shelf holds %d requests, bound is %d", len(s.byTelco), maxShelved)
		}
	}
	last := fmt.Sprintf("telco-%d", 3*maxShelved-1)
	p, resent, _ := s.Take(w.cb, last)
	if !resent || p.IDT != last {
		t.Fatalf("Take(%s) = %+v resent=%v, want the shelved request for that bTelco", last, p, resent)
	}
	if _, resent, _ = s.Take(w.cb, last); resent {
		t.Fatal("a taken request was still on the shelf")
	}
}

// attachRequest decodes env as a SAP attach request, or returns nil for any
// other NAS message.
func attachRequest(t *testing.T, env []byte) *sap.AuthReqU {
	t.Helper()
	_, _, body, err := nas.SplitEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := nas.Decode(body)
	req, ok := msg.(*nas.AttachRequestSAP)
	if err != nil || !ok {
		return nil
	}
	reqU, err := sap.UnmarshalAuthReqU(req.AuthReqU)
	if err != nil {
		t.Fatal(err)
	}
	return reqU
}

// A ticket comes back only from a request shed with a typed retry-after
// hint, when the UE leaves it for another bTelco — never after a grant, a
// denial or a transport error once sent, and never over a newer ticket —
// and the abandoned request is not sent again. A signed shed request
// reclaims nothing and stays shelved. Each row makes one attempt at bTelco
// 0, then attaches at bTelco 1 and back at bTelco 0.
func TestAttachShelfHandsBackOnlyAShedTicket(t *testing.T) {
	shed := func(w *retryWorld, d *Device, tx NASTransport) error {
		w.brk.ShedLoad(time.Second)
		defer w.brk.Resume()
		_, err := d.AttachSAP(tx, w.telcos[0].IDT)
		return err
	}
	const (
		signedNext  = iota // the attach at bTelco 1 is first contact again
		ticketNext         // it rides a ticket, not the attempt's
		reclaimNext        // it rides the attempt's ticket, in a new box
	)
	for _, tc := range []struct {
		name          string
		signed        bool // the attempt is the UE's first contact
		attempt       func(w *retryWorld, d *Device, tx NASTransport) error
		granted, shed bool // how the attempt ends, if not in another error
		next          int
		resent        bool // the attach back at bTelco 0 resends the attempt's bytes
	}{
		{name: "typed shed", attempt: shed, shed: true, next: reclaimNext},
		{name: "grant", granted: true, next: ticketNext,
			attempt: func(w *retryWorld, d *Device, tx NASTransport) error {
				if _, err := d.AttachSAP(tx, w.telcos[0].IDT); err != nil {
					return err
				}
				return d.Detach(tx)
			}},
		{name: "denial", next: signedNext,
			attempt: func(w *retryWorld, d *Device, tx NASTransport) error {
				defer w.overpriced(0)()
				_, err := d.AttachSAP(tx, w.telcos[0].IDT)
				if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
					t.Fatalf("the attempt at an overpriced bTelco: %v, want the price gate's denial", err)
				}
				return err
			}},
		{name: "transport error once sent", next: signedNext,
			attempt: func(w *retryWorld, d *Device, tx NASTransport) error {
				_, err := d.AttachSAP(func(env []byte) ([]byte, error) {
					tx(env) // the broker granted; the reply is lost
					return nil, errors.New("radio link failure")
				}, w.telcos[0].IDT)
				return err
			}},
		{name: "a newer ticket", shed: true, next: ticketNext,
			attempt: func(w *retryWorld, d *Device, tx NASTransport) error {
				err := shed(w, d, tx)
				// The same SIM attaches elsewhere meanwhile, and is granted.
				other := NewDevice(d.RANID+"-other", nil, d.CB)
				if _, err := other.AttachSAP(w.tx(1, other.RANID), w.telcos[1].IDT); err != nil {
					t.Fatal(err)
				}
				return err
			}},
		{name: "typed shed of a signed request", signed: true, attempt: shed, shed: true, next: signedNext, resent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newRetryWorld(t)
			d := NewDevice("rt-ue-7", nil, w.cb)
			var sent [][]byte
			tx := [2]NASTransport{w.recording(0, "rt-ue-7", &sent), w.recording(1, "rt-ue-7", &sent)}
			attach := func(i int) *sap.AuthReqU {
				t.Helper()
				n := len(sent)
				if _, err := d.AttachSAP(tx[i], w.telcos[i].IDT); err != nil {
					t.Fatalf("attach at bTelco %d: %v", i, err)
				}
				if err := d.Detach(tx[i]); err != nil {
					t.Fatal(err)
				}
				return attachRequest(t, sent[n])
			}
			if !tc.signed {
				attach(0) // first contact: the UE holds a ticket
			}
			n, reclaims := len(sent), mtr.reclaims.Value()
			err := tc.attempt(w, d, tx[0])
			var ra *wire.RetryAfterError
			if (err == nil) != tc.granted || errors.As(err, &ra) != tc.shed {
				t.Fatalf("the attempt: %v", err)
			}
			failed := attachRequest(t, sent[n])
			if (len(failed.Sig) != 0) != tc.signed {
				t.Fatalf("the attempt carries a %d-byte signature", len(failed.Sig))
			}

			at1 := attach(1)
			if (len(at1.Sig) != 0) != (tc.next == signedNext) {
				t.Fatalf("the attach at bTelco 1 carries a %d-byte signature", len(at1.Sig))
			}
			reclaimed := tc.next == reclaimNext
			if bytes.Equal(at1.SealedVec[:32], failed.SealedVec[:32]) != reclaimed || bytes.Equal(at1.SealedVec, failed.SealedVec) {
				t.Fatalf("the attach at bTelco 1 shares the attempt's prefix: %v, want %v", !reclaimed, reclaimed)
			}
			var want uint64
			if reclaimed {
				want = 1
			}
			if got := mtr.reclaims.Value() - reclaims; got != want {
				t.Fatalf("ue_attach_tickets_reclaimed_total moved by %d, want %d", got, want)
			}

			back := attach(0)
			if bytes.Equal(back.SealedVec, failed.SealedVec) != tc.resent {
				t.Fatalf("back at bTelco 0: resent the attempt = %v, want %v", !tc.resent, tc.resent)
			}
			if !tc.resent && bytes.Equal(back.SealedVec[:32], failed.SealedVec[:32]) {
				t.Fatal("back at bTelco 0: the attempt's prefix again")
			}
		})
	}
}

// Whatever mix of grants, sheds, losses and denials a device lives through,
// no 32-byte authVec prefix — X25519 key or ticket locator (DESIGN.md §2.8)
// — leaves it twice, except inside the byte-identical retransmission of a
// shed request, or once more in the request that rode the ticket of a shed
// one abandoned for another bTelco; and after anything but a grant or a shed
// the next request is the signed handshake again.
func TestDeviceNeverRepeatsAPrefixExceptShedRetransmit(t *testing.T) {
	w := newRetryWorld(t)
	d := NewDevice("rt-ue-6", nil, w.cb)
	var sent [][]byte
	tx := [2]NASTransport{w.recording(0, "rt-ue-6", &sent), w.recording(1, "rt-ue-6", &sent)}

	attach := func(i int, wantErr bool) {
		t.Helper()
		if _, err := d.AttachSAP(tx[i], w.telcos[i].IDT); (err != nil) != wantErr {
			t.Fatalf("attach %d: err = %v, want failure=%v", len(sent), err, wantErr)
		}
		if !wantErr {
			if err := d.Detach(tx[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	attach(0, false) // first contact
	attach(0, false) // ticketed
	w.brk.ShedLoad(time.Second)
	attach(0, true) // ticketed, shed, shelved
	w.brk.Resume()
	attach(0, false) // the same bytes again, granted
	attach(0, false) // ticketed
	w.brk.ShedLoad(time.Second)
	attach(0, true) // ticketed, shed, shelved
	w.brk.Resume()
	attach(1, false) // abandons it, and rides its ticket in a new box
	attach(0, false) // ticketed: the abandoned request is not resent
	w.down[0] = true
	attach(0, true) // ticketed, lost with its ticket
	w.down[0] = false
	attach(0, false) // signed
	restore := w.overpriced(0)
	attach(0, true) // ticketed, denied with its ticket
	restore()
	attach(0, false) // signed
	attach(0, false) // ticketed

	wantSigned := []bool{true, false, false, false, false, false, false, false, false, true, false, true, false}
	abandoned := map[int]bool{5: true} // the request shed at bTelco 0 before the attach at bTelco 1
	var requests [][]byte
	lastWith := map[string]int{} // prefix -> the last request that carried it
	resent, reclaimed := 0, 0
	for _, env := range sent {
		reqU := attachRequest(t, env)
		if reqU == nil {
			continue // a detach
		}
		i := len(requests)
		requests = append(requests, env)
		if i < len(wantSigned) && (len(reqU.Sig) != 0) != wantSigned[i] {
			t.Errorf("request %d carries a %d-byte UE signature, want signed=%v", i, len(reqU.Sig), wantSigned[i])
		}
		prefix := string(reqU.SealedVec[:32])
		if j, dup := lastWith[prefix]; dup {
			switch {
			case bytes.Equal(requests[j], env):
				resent++
			case abandoned[j]:
				delete(abandoned, j)
				reclaimed++
			default:
				t.Errorf("request %d reuses request %d's prefix in different bytes", i, j)
			}
		}
		lastWith[prefix] = i
	}
	if len(requests) != len(wantSigned) || resent != 1 || reclaimed != 1 || len(lastWith) != len(requests)-2 {
		t.Fatalf("%d requests over %d prefixes, %d resent, %d on a reclaimed ticket; want %d requests, one of each",
			len(requests), len(lastWith), resent, reclaimed, len(wantSigned))
	}
}
