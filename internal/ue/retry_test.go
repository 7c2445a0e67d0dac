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
	if w.Armed() {
		t.Fatal("still armed after trip")
	}
	if w.Observe(20*time.Second, 100) {
		t.Fatal("disarmed watchdog observed a trip")
	}
	if w.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", w.Trips())
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
	pol := RetryPolicy{MaxAttempts: 10, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond}
	m := NewAttachFSM(pol, 1, nil)
	want := []time.Duration{100, 200, 400, 400, 400}
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

func TestFSMRetryAfterFloorsDelay(t *testing.T) {
	m := NewAttachFSM(RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond}, 2, nil)
	hint := &wire.RetryAfterError{After: 2 * time.Second}
	d, _ := m.Fail(fmt.Errorf("%w: shed: %w", ErrRejected, hint))
	if d < 2*time.Second {
		t.Fatalf("delay %v ignored the 2s retry-after floor", d)
	}
}

func TestFSMJitterDeterministic(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * time.Millisecond, JitterFrac: 0.4}
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
	pol := RetryPolicy{MaxAttempts: 6, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, JitterFrac: 0.5}
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

// --- AttachSAPRetry against a real control-plane stack ---

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
			Terms: sap.ServiceTerms{Cap: qos.DefaultCapability(), PricePerGB: 1.0},
		}
		w.agws[i] = epc.NewAGW(epc.AGWConfig{Telco: w.telcos[i], Brokers: retryDirectory{w}})
	}
	return w
}

func (w *retryWorld) candidate(i int, ranID string) AttachCandidate {
	return AttachCandidate{
		TelcoID: w.telcos[i].IDT,
		Tx: func(envelope []byte) ([]byte, error) {
			if w.down[i] {
				return nil, fmt.Errorf("btelco %d down", i)
			}
			return w.agws[i].HandleNAS(ranID, envelope)
		},
	}
}

func TestAttachSAPRetryFallsBackToSecondary(t *testing.T) {
	w := newRetryWorld(t)
	w.down[0] = true // serving bTelco is dead
	d := NewDevice("rt-ue-1", nil, w.cb)
	var slept []time.Duration
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}
	a, served, fsm, err := d.AttachSAPRetry(pol, nil, func(dur time.Duration) { slept = append(slept, dur) },
		w.candidate(0, "rt-ue-1a"), w.candidate(1, "rt-ue-1b"))
	if err != nil {
		t.Fatalf("AttachSAPRetry: %v", err)
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
	w.brk.ShedLoad(40 * time.Millisecond)
	d := NewDevice("rt-ue-2", nil, w.cb)
	var slept []time.Duration
	sleep := func(dur time.Duration) {
		slept = append(slept, dur)
		// The broker recovers while the UE backs off.
		w.brk.Resume()
	}
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}
	_, _, fsm, err := d.AttachSAPRetry(pol, nil, sleep,
		w.candidate(0, "rt-ue-2a"), w.candidate(1, "rt-ue-2b"))
	if err != nil {
		t.Fatalf("AttachSAPRetry: %v", err)
	}
	if fsm.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1 (one shed, one success)", fsm.Attempts())
	}
	if len(slept) != 1 || slept[0] < 40*time.Millisecond {
		t.Fatalf("backoff %v did not honour the broker's 40ms retry-after hint", slept)
	}
	if w.brk.ShedCount() != 1 {
		t.Fatalf("ShedCount = %d, want 1", w.brk.ShedCount())
	}
}

func TestAttachSAPRetryBudgetExhausts(t *testing.T) {
	w := newRetryWorld(t)
	w.down[0], w.down[1] = true, true
	d := NewDevice("rt-ue-3", nil, w.cb)
	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}
	_, _, fsm, err := d.AttachSAPRetry(pol, nil, func(time.Duration) {},
		w.candidate(0, "rt-ue-3a"), w.candidate(1, "rt-ue-3b"))
	if !errors.Is(err, ErrAttachBudget) {
		t.Fatalf("err = %v, want ErrAttachBudget", err)
	}
	if fsm.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", fsm.Attempts())
	}
}

// --- retransmitting a shed request ---

// recording wraps candidate 0's transport, keeping every uplink envelope.
func (w *retryWorld) recording(ranID string, sent *[][]byte) NASTransport {
	tx := w.candidate(0, ranID).Tx
	return func(envelope []byte) ([]byte, error) {
		*sent = append(*sent, append([]byte(nil), envelope...))
		return tx(envelope)
	}
}

func TestAttachSAPRetransmitsShedRequest(t *testing.T) {
	w := newRetryWorld(t)
	d := NewDevice("rt-ue-4", nil, w.cb)
	var sent [][]byte
	tx := w.recording("rt-ue-4", &sent)
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
	tx := w.recording("rt-ue-5", &sent)
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

// Whatever mix of grants, sheds, losses and denials a device lives through,
// no 32-byte authVec prefix — X25519 key or ticket locator (DESIGN.md §2.8)
// — leaves it twice, except inside the byte-identical retransmission of a
// shed request; and after anything but a grant the next request is the
// signed handshake again.
func TestDeviceNeverRepeatsAPrefixExceptShedRetransmit(t *testing.T) {
	w := newRetryWorld(t)
	d := NewDevice("rt-ue-6", nil, w.cb)
	var sent [][]byte
	tx := w.recording("rt-ue-6", &sent)
	idT := w.telcos[0].IDT

	attach := func(wantErr bool) {
		t.Helper()
		if _, err := d.AttachSAP(tx, idT); (err != nil) != wantErr {
			t.Fatalf("attach %d: err = %v, want failure=%v", len(sent), err, wantErr)
		}
		if !wantErr {
			if err := d.Detach(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	attach(false) // first contact
	attach(false) // ticketed
	w.brk.ShedLoad(time.Second)
	attach(true) // ticketed, shed, shelved
	w.brk.Resume()
	attach(false) // the same bytes again, granted
	attach(false) // ticketed
	w.down[0] = true
	attach(true) // ticketed, lost with its ticket
	w.down[0] = false
	attach(false) // signed
	w.brk.SetPolicy(qos.DefaultParams(), broker.PriceCap(0.5))
	attach(true) // ticketed, denied with its ticket
	w.brk.SetPolicy(qos.DefaultParams())
	attach(false) // signed
	attach(false) // ticketed

	wantSigned := []bool{true, false, false, false, false, false, true, false, true, false}
	byPrefix := map[string][]byte{}
	var requests [][]byte
	for _, env := range sent {
		_, _, body, err := nas.SplitEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := nas.Decode(body)
		req, ok := msg.(*nas.AttachRequestSAP)
		if err != nil || !ok {
			continue // a detach
		}
		requests = append(requests, env)
		reqU, err := sap.UnmarshalAuthReqU(req.AuthReqU)
		if err != nil {
			t.Fatal(err)
		}
		i := len(requests) - 1
		if i < len(wantSigned) && (len(reqU.Sig) != 0) != wantSigned[i] {
			t.Errorf("request %d carries a %d-byte UE signature, want signed=%v", i, len(reqU.Sig), wantSigned[i])
		}
		prefix := string(reqU.SealedVec[:32])
		if first, dup := byPrefix[prefix]; dup && !bytes.Equal(first, env) {
			t.Errorf("request %d reuses an earlier request's prefix in different bytes", i)
		}
		byPrefix[prefix] = env
	}
	if len(requests) != len(wantSigned) || len(byPrefix) != len(requests)-1 || !bytes.Equal(requests[2], requests[3]) {
		t.Fatalf("%d requests over %d prefixes; want %d requests, one retransmitted", len(requests), len(byPrefix), len(wantSigned))
	}
}
