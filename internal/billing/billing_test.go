package billing

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
)

func pair(t testing.TB, seed byte) *pki.KeyPair {
	t.Helper()
	k, err := pki.KeyPairFromSeed(bytes.Repeat([]byte{seed}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestReportCodecRoundTrip(t *testing.T) {
	r := &Report{
		SessionRef: "abc123",
		Reporter:   ReporterTelco,
		Seq:        7,
		Rel:        42 * time.Second,
		ULBytes:    1000,
		DLBytes:    5000,
		CallSecs:   12.5,
		SMSCount:   3,
		QoS: QoSMetrics{
			DLBitrateBps: 2.1e6, ULBitrateBps: 0.4e6,
			DLLossRate: 0.01, ULLossRate: 0.002,
			DLDelayMs: 45, ULDelayMs: 50,
		},
	}
	got, err := UnmarshalReport(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", got, r)
	}
}

func TestReportCodecRejectsBadReporter(t *testing.T) {
	r := &Report{SessionRef: "x", Reporter: 9}
	if _, err := UnmarshalReport(r.Marshal()); err == nil {
		t.Fatal("bad reporter accepted")
	}
}

func TestSealOpenVerified(t *testing.T) {
	broker, ue := pair(t, 1), pair(t, 2)
	r := &Report{SessionRef: "s1", Reporter: ReporterUE, Seq: 1, DLBytes: 999}
	env, err := Seal(r, ue, broker.Public())
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenVerified(env, broker, ue.Public())
	if err != nil {
		t.Fatal(err)
	}
	if got.DLBytes != 999 {
		t.Fatalf("got %+v", got)
	}
}

func TestOpenVerifiedRejectsWrongSigner(t *testing.T) {
	broker, ue, other := pair(t, 3), pair(t, 4), pair(t, 5)
	r := &Report{SessionRef: "s1", Reporter: ReporterUE, Seq: 1}
	env, err := Seal(r, ue, broker.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVerified(env, broker, other.Public()); !errors.Is(err, ErrBadReportSignature) {
		t.Fatalf("err=%v, want ErrBadReportSignature", err)
	}
}

func TestOpenVerifiedRejectsTamper(t *testing.T) {
	broker, ue := pair(t, 6), pair(t, 7)
	r := &Report{SessionRef: "s1", Reporter: ReporterUE, Seq: 1, DLBytes: 10}
	env, err := Seal(r, ue, broker.Public())
	if err != nil {
		t.Fatal(err)
	}
	env.Sealed[len(env.Sealed)-1] ^= 1
	if _, err := OpenVerified(env, broker, ue.Public()); err == nil {
		t.Fatal("tampered sealed body accepted")
	}
}

// Reports of one reporter ride one exchange: SealOn pays no key agreement,
// the boxes share a prefix, and each still verifies and opens on its own.
func TestSealOnSharesOneExchange(t *testing.T) {
	broker, telco := pair(t, 8), pair(t, 9)
	sealer, err := pki.NewSealer(broker.Public())
	if err != nil {
		t.Fatal(err)
	}
	var first *SealedReport
	for seq := uint32(1); seq <= 4; seq++ {
		env, err := SealOn(&Report{SessionRef: "s1", Reporter: ReporterTelco, Seq: seq}, telco, sealer)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = env
		} else if !bytes.Equal(env.Sealed[:32], first.Sealed[:32]) || bytes.Equal(env.Sealed, first.Sealed) {
			t.Fatal("reports on one sealer must share the exchange prefix and nothing else")
		}
		got, err := OpenVerified(env, broker, telco.Public())
		if err != nil || got.Seq != seq {
			t.Fatalf("seq %d: %+v, %v", seq, got, err)
		}
	}
	one, err := Seal(&Report{SessionRef: "s1", Reporter: ReporterTelco, Seq: 9}, telco, broker.Public())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(one.Sealed[:32], first.Sealed[:32]) {
		t.Fatal("one-shot Seal reused an exchange")
	}
}

// FuzzOpenVerified drives the broker's sealed-report authentication
// (ROADMAP 4a) with what a hostile reporter controls. It holds its own
// signing key and its own MAC key, so beyond raw envelope bytes (mode 0) it
// can sign any sealed bytes (mode 1), seal and sign any report body (mode
// 2), seal and MAC any body (mode 3), and hang a signed checkpoint of
// digests of its choosing on that (mode 4). The corpus under
// testdata/fuzz/FuzzOpenVerified runs on every plain `go test`.
func FuzzOpenVerified(f *testing.F) {
	broker, reporter := pair(f, 0xB0), pair(f, 0xB1)
	mac := pki.Ticket{Key: [32]byte{0xB2}}
	sealer, err := pki.NewSealer(broker.Public())
	if err != nil {
		f.Fatal(err)
	}
	good, err := SealOn(rpt(ReporterTelco, 3, 4096, 0.01), reporter, sealer)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Marshal(), byte(0))
	f.Add(good.Sealed, byte(1))
	f.Add(rpt(ReporterUE, 1, 10, 0).Marshal(), byte(2))
	var stream Stream
	for i := 0; i <= checkpointEvery; i++ { // one signed, 255 MAC'd, one with the checkpoint
		env, err := stream.Seal(rpt(ReporterTelco, uint32(i+1), 512, 0), reporter, sealer, &mac)
		if err != nil {
			f.Fatal(err)
		}
		if i == 1 || i == checkpointEvery {
			f.Add(env.Marshal(), byte(0))
		}
	}
	f.Add(rpt(ReporterUE, 2, 10, 0).Marshal(), byte(3))
	f.Add(rpt(ReporterUE, 3, 10, 0).Marshal(), byte(4))
	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		var env *SealedReport
		seal := func(macd bool, cp *Checkpoint) {
			sealed, err := sealer.Seal(func(c codec.Coder) codec.Coder { c.Raw(data); return c })
			if err != nil {
				t.Fatal(err)
			}
			env = &SealedReport{Sealed: sealed, Checkpoint: cp}
			if macd {
				tag := tagOf(&mac, digestOf(data), cp)
				env.Sig = tag[:]
			} else {
				env.Sig = reporter.Sign(sealed)
			}
		}
		switch mode % 5 {
		case 0:
			var err error
			if env, err = UnmarshalSealedReport(data); err != nil {
				return
			}
		case 1:
			env = &SealedReport{Sealed: data, Sig: reporter.Sign(data)}
		case 2:
			seal(false, nil)
		case 3:
			seal(true, nil)
		case 4:
			cp := &Checkpoint{Digests: []Digest{digestOf(data), sha256.Sum256(append([]byte("another report"), data...))}}
			cp.Sig = reporter.Sign(cp.signedBytes())
			seal(true, cp)
		}
		o, err := Open(env, broker)
		if err == nil {
			err = o.Authenticate(reporter.Public(), &mac)
		}
		// OpenVerified is the same two steps with no MAC key on offer.
		r, verr := OpenVerified(env, broker, reporter.Public())
		if (verr == nil) != (err == nil && !o.MACd) || (verr != nil && r != nil) {
			t.Fatalf("OpenVerified says %v (report %v), the two steps say %v with MACd %v", verr, r != nil, err, o.MACd)
		}
		if err != nil {
			return
		}
		r = o.Report
		// What opened is a well-formed report no larger than its input.
		if len(r.SessionRef) > len(data) {
			t.Fatalf("%d-byte session reference out of %d input bytes", len(r.SessionRef), len(data))
		}
		back, err := UnmarshalReport(r.Marshal())
		if err != nil || (*back != *r && !math.IsNaN(r.CallSecs+r.QoS.DLBitrateBps+r.QoS.ULBitrateBps+
			r.QoS.DLLossRate+r.QoS.ULLossRate+r.QoS.DLDelayMs+r.QoS.ULDelayMs)) {
			t.Fatalf("opened report does not round-trip: %+v vs %+v (%v)", back, r, err)
		}
		// An authenticated checkpoint is one a third party accepts, for
		// every report whose digest it lists.
		if cp := env.Checkpoint; cp != nil && slices.Contains(cp.Digests, digestOf(r.Marshal())) {
			if err := VerifyCheckpoint(reporter.Public(), cp, r); err != nil {
				t.Fatalf("authenticated checkpoint fails a third party: %v", err)
			}
		}
	})
}

// FuzzUnmarshalSealedReport covers the billing envelope decoder (ROADMAP
// 7a): no panic, nothing allocated from an unchecked count, and decode ∘
// encode = id in both directions.
func FuzzUnmarshalSealedReport(f *testing.F) {
	plain := &SealedReport{Sealed: []byte("sealed"), Sig: bytes.Repeat([]byte{1}, 64)}
	f.Add(plain.Marshal())
	withCP := &SealedReport{Sealed: []byte("sealed"), Sig: bytes.Repeat([]byte{2}, macSize),
		Checkpoint: &Checkpoint{Digests: make([]Digest, 3), Sig: bytes.Repeat([]byte{3}, 64)}}
	f.Add(withCP.Marshal())
	full := &SealedReport{Checkpoint: &Checkpoint{Digests: make([]Digest, checkpointEvery)}}
	f.Add(full.Marshal())
	over := &SealedReport{Checkpoint: &Checkpoint{Digests: make([]Digest, checkpointEvery+1)}}
	f.Add(over.Marshal())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xe0})              // 4 GiB of digests claimed, none present
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})              // a checkpoint of no digests
	f.Add(append(plain.Marshal(), 0, 0, 0, 31))                                // not a whole digest
	f.Add(append(plain.Marshal(), withCP.Marshal()[len(plain.Marshal()):]...)) // a checkpoint after a signed report
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := UnmarshalSealedReport(data)
		if err != nil {
			return
		}
		if cp := env.Checkpoint; cp != nil && (len(cp.Digests) < 1 || len(cp.Digests) > checkpointEvery) {
			t.Fatalf("decoded a checkpoint of %d digests", len(cp.Digests))
		}
		if len(env.Sealed)+len(env.Sig) > len(data) {
			t.Fatalf("%d+%d bytes decoded out of %d", len(env.Sealed), len(env.Sig), len(data))
		}
		enc := env.Marshal()
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoded to %d bytes, input was %d", len(enc), len(data))
		}
		back, err := UnmarshalSealedReport(enc)
		if err != nil || !bytes.Equal(back.Sealed, env.Sealed) || !bytes.Equal(back.Sig, env.Sig) ||
			(back.Checkpoint == nil) != (env.Checkpoint == nil) {
			t.Fatalf("decode of the re-encoding: %+v, %v", back, err)
		}
		if cp := env.Checkpoint; cp != nil && (!slices.Equal(back.Checkpoint.Digests, cp.Digests) || !bytes.Equal(back.Checkpoint.Sig, cp.Sig)) {
			t.Fatal("checkpoint changed across a round trip")
		}
	})
}

func TestSealedReportEnvelopeCodec(t *testing.T) {
	env := &SealedReport{Sealed: []byte{1, 2, 3}, Sig: []byte{4, 5}}
	got, err := UnmarshalSealedReport(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Sealed, env.Sealed) || !bytes.Equal(got.Sig, env.Sig) {
		t.Fatal("envelope roundtrip mismatch")
	}
}

func mkVerifier() *Verifier {
	v := NewVerifier(DefaultVerifierConfig())
	v.BindSession("sess", "user-1", "telco-1")
	return v
}

func rpt(rep Reporter, seq uint32, dl uint64, loss float64) *Report {
	return &Report{
		SessionRef: "sess", Reporter: rep, Seq: seq,
		Rel:     time.Duration(seq) * 30 * time.Second,
		DLBytes: dl, ULBytes: dl / 10,
		QoS: QoSMetrics{DLLossRate: loss},
	}
}

func TestVerifierHonestPairPasses(t *testing.T) {
	v := mkVerifier()
	if _, err := v.Ingest(rpt(ReporterUE, 1, 1_000_000, 0.01)); err != nil {
		t.Fatal(err)
	}
	m, err := v.Ingest(rpt(ReporterTelco, 1, 1_020_000, 0)) // within 5%+loss
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("honest pair flagged: %+v", m)
	}
	if s := v.TelcoScore("telco-1"); s < 0.99 {
		t.Fatalf("score %.3f after honest pair", s)
	}
}

func TestVerifierInflationCaught(t *testing.T) {
	v := mkVerifier()
	v.Ingest(rpt(ReporterUE, 1, 1_000_000, 0.01))
	m, err := v.Ingest(rpt(ReporterTelco, 1, 1_500_000, 0)) // 50% inflation
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("50% inflation not flagged")
	}
	if m.Degree < 0.4 || m.Degree > 0.6 {
		t.Fatalf("degree = %.2f, want ~0.5", m.Degree)
	}
	if s := v.TelcoScore("telco-1"); s >= 1.0 {
		t.Fatalf("score did not drop: %.3f", s)
	}
	if e := v.telcoRep["telco-1"]; e.Mismatches != 1 || e.Reports != 1 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestVerifierOrderIndependent(t *testing.T) {
	v := mkVerifier()
	// Telco report arrives first.
	m, err := v.Ingest(rpt(ReporterTelco, 1, 2_000_000, 0))
	if err != nil || m != nil {
		t.Fatalf("first half: m=%v err=%v", m, err)
	}
	m, err = v.Ingest(rpt(ReporterUE, 1, 1_000_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("2x inflation not flagged when telco reported first")
	}
}

func TestVerifierLossToleranceScalesThreshold(t *testing.T) {
	v := mkVerifier()
	// 20% loss reported by the UE: the telco seeing 1.2x is consistent
	// with sending packets that were lost after its counter.
	v.Ingest(rpt(ReporterUE, 1, 1_000_000, 0.20))
	m, _ := v.Ingest(rpt(ReporterTelco, 1, 1_200_000, 0))
	if m != nil {
		t.Fatalf("loss-consistent pair flagged: %+v", m)
	}
}

func TestVerifierRepeatedInflationTanksScore(t *testing.T) {
	v := mkVerifier()
	for seq := uint32(1); seq <= 30; seq++ {
		v.Ingest(rpt(ReporterUE, seq, 1_000_000, 0))
		v.Ingest(rpt(ReporterTelco, seq, 3_000_000, 0))
	}
	if s := v.TelcoScore("telco-1"); s > 0.2 {
		t.Fatalf("persistent 3x inflation left score at %.3f", s)
	}
	if len(v.Mismatches()) != 30 {
		t.Fatalf("mismatch count = %d", len(v.Mismatches()))
	}
}

func TestVerifierMismatchRingBounded(t *testing.T) {
	cfg := DefaultVerifierConfig()
	cfg.MaxMismatches = 8
	v := NewVerifier(cfg)
	v.BindSession("sess", "user-1", "telco-1")
	for seq := uint32(1); seq <= 20; seq++ {
		v.Ingest(rpt(ReporterUE, seq, 1_000_000, 0))
		v.Ingest(rpt(ReporterTelco, seq, 3_000_000, 0))
	}
	ms := v.Mismatches()
	if len(ms) != 8 {
		t.Fatalf("ring holds %d, want 8", len(ms))
	}
	if v.mmDropped != 12 {
		t.Fatalf("dropped = %d, want 12", v.mmDropped)
	}
	// Oldest-first order: the retained window is seqs 13..20.
	for i, m := range ms {
		if want := uint32(13 + i); m.Seq != want {
			t.Fatalf("ms[%d].Seq = %d, want %d", i, m.Seq, want)
		}
	}
	// Reputation bookkeeping is unaffected by eviction.
	if e := v.telcoRep["telco-1"]; e.Mismatches != 20 {
		t.Fatalf("entry.Mismatches = %d, want 20", e.Mismatches)
	}
}

func TestVerifierReplayRejected(t *testing.T) {
	v := mkVerifier()
	v.Ingest(rpt(ReporterUE, 1, 1_000_000, 0))
	v.Ingest(rpt(ReporterTelco, 1, 1_000_000, 0))
	before := v.TelcoScore("telco-1")

	// Exact duplicate of the telco's seq-1 report: replay.
	m, err := v.Ingest(rpt(ReporterTelco, 1, 1_000_000, 0))
	if !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("duplicate report: m=%v err=%v, want ErrReplayedReport", m, err)
	}
	if e := v.telcoRep["telco-1"]; e.Replays != 1 {
		t.Fatalf("entry.Replays = %d, want 1", e.Replays)
	}
	if after := v.TelcoScore("telco-1"); after >= before {
		t.Fatalf("replay did not hurt score: %.3f -> %.3f", before, after)
	}

	// A rel-regressed report with a fresh seq is stale too.
	stale := rpt(ReporterTelco, 5, 1_000_000, 0)
	stale.Rel = 10 * time.Second // behind seq-1's 30s
	if _, err := v.Ingest(stale); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("rel regression not flagged: %v", err)
	}

	// Replays must not leave zombie pending pairs: a fresh aligned pair
	// still checks cleanly.
	v.Ingest(rpt(ReporterUE, 2, 2_000_000, 0))
	m, err = v.Ingest(rpt(ReporterTelco, 2, 2_000_000, 0))
	if err != nil || m != nil {
		t.Fatalf("fresh pair after replay: m=%v err=%v", m, err)
	}

	// UE replays are rejected but do not ding the bTelco.
	e0 := v.telcoRep["telco-1"].Replays
	if _, err := v.Ingest(rpt(ReporterUE, 2, 2_000_000, 0)); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("UE duplicate not flagged: %v", err)
	}
	if e := v.telcoRep["telco-1"]; e.Replays != e0 {
		t.Fatalf("UE replay attributed to bTelco: %d -> %d", e0, e.Replays)
	}
}

// TestEvidenceMatchesParentFormulas pins Evidence to the formulas of the
// four entry points it replaced, written out here, bit for bit: every kind,
// degrees out of range and in it, from a score below 1, at the default
// Alpha and at one where double weight caps at 1.
func TestEvidenceMatchesParentFormulas(t *testing.T) {
	clamp := func(d float64) float64 {
		if d > 1 {
			d = 1
		}
		if d < 0 {
			d = 0
		}
		return d
	}
	// Each returns the score and penalty after one piece of evidence.
	misconduct := func(score, pen, a, d float64) (float64, float64) { // PenalizeMisconduct
		d = clamp(d)
		alpha := math.Min(1, a*2)
		return score*(1-alpha) + alpha*(1.0-d), pen + d
	}
	parent := map[EvidenceKind]func(score, pen, a, d float64) (float64, float64){
		MismatchEvidence: func(score, pen, a, d float64) (float64, float64) { // Verifier.check
			fail := 1.0 - math.Min(d, 1.0)
			return score*(1-a) + a*fail, pen + d
		},
		ReplayEvidence:    misconduct,
		WatchdogEvidence:  misconduct, // Brokerd.ReportWatchdog
		SLOBreachEvidence: misconduct, // Brokerd.ReportSLOBreach
		QoSEvidence: func(score, pen, a, d float64) (float64, float64) { // PenalizeQoS
			d = clamp(d)
			fail := 1.0 - d
			alpha := a / 2
			return score*(1-alpha) + alpha*fail, pen
		},
	}
	if len(parent) != len(evidenceRules) {
		t.Fatalf("%d kinds, %d parent formulas", len(evidenceRules), len(parent))
	}
	const score0, pen0 = 0.8123, 0.25
	for _, alpha := range []float64{DefaultVerifierConfig().Alpha, 0.6} {
		for kind, f := range parent {
			for _, d := range []float64{-0.5, 0, 0.3, 1, 2} {
				cfg := DefaultVerifierConfig()
				cfg.Alpha = alpha
				v := NewVerifier(cfg)
				v.telcoRep["telco-1"] = &ReputationEntry{Score: score0, Penalty: pen0}
				v.Evidence("telco-1", kind, d)
				e := v.telcoRep["telco-1"]
				score, pen := f(score0, pen0, alpha, d)
				if math.Float64bits(e.Score) != math.Float64bits(score) || math.Float64bits(e.Penalty) != math.Float64bits(pen) {
					t.Errorf("kind %d alpha %v degree %v: score %v penalty %v, parent %v %v",
						kind, alpha, d, e.Score, e.Penalty, score, pen)
				}
			}
		}
	}
}

func TestVerifierScoreRecovers(t *testing.T) {
	v := mkVerifier()
	v.Ingest(rpt(ReporterUE, 1, 1_000_000, 0))
	v.Ingest(rpt(ReporterTelco, 1, 9_000_000, 0))
	low := v.TelcoScore("telco-1")
	for seq := uint32(2); seq <= 60; seq++ {
		v.Ingest(rpt(ReporterUE, seq, 1_000_000, 0))
		v.Ingest(rpt(ReporterTelco, seq, 1_000_000, 0))
	}
	if got := v.TelcoScore("telco-1"); got <= low || got < 0.9 {
		t.Fatalf("score did not recover: %.3f -> %.3f", low, got)
	}
}

func TestVerifierSuspectList(t *testing.T) {
	v := NewVerifier(DefaultVerifierConfig())
	// The same user disagrees with three different bTelcos -> suspect.
	for i, telco := range []string{"t1", "t2", "t3"} {
		ref := telco + "-sess"
		v.BindSession(ref, "liar", telco)
		u := rpt(ReporterUE, 1, 100_000, 0) // UE deflates
		u.SessionRef = ref
		tr := rpt(ReporterTelco, 1, 1_000_000, 0)
		tr.SessionRef = ref
		v.Ingest(u)
		v.Ingest(tr)
		if i < 2 && v.Suspect("liar") {
			t.Fatalf("suspect after only %d telcos", i+1)
		}
	}
	if !v.Suspect("liar") {
		t.Fatal("user disagreeing with 3 bTelcos not suspected")
	}
	if v.Suspect("honest") {
		t.Fatal("unrelated user suspected")
	}
}

func TestVerifierUnknownSession(t *testing.T) {
	v := NewVerifier(DefaultVerifierConfig())
	if _, err := v.Ingest(rpt(ReporterUE, 1, 1, 0)); err == nil {
		t.Fatal("report for unbound session accepted")
	}
}

func TestAlignByTime(t *testing.T) {
	cycle := 30 * time.Second
	mk := func(rep Reporter, rel time.Duration) *Report {
		return &Report{SessionRef: "s", Reporter: rep, Rel: rel}
	}
	ue := []*Report{mk(ReporterUE, 30*time.Second), mk(ReporterUE, 60*time.Second), mk(ReporterUE, 90*time.Second)}
	telco := []*Report{mk(ReporterTelco, 31*time.Second), mk(ReporterTelco, 58*time.Second)}
	pairs := alignByTime(ue, telco, cycle)
	if len(pairs) != 2 {
		t.Fatalf("aligned %d pairs, want 2", len(pairs))
	}
	if pairs[0].UE.Rel != 30*time.Second || pairs[0].Telco.Rel != 31*time.Second {
		t.Fatalf("pair 0 wrong: %+v", pairs[0])
	}
	// A telco report far outside any window pairs with nothing.
	lone := alignByTime(ue[:1], []*Report{mk(ReporterTelco, 300*time.Second)}, cycle)
	if len(lone) != 0 {
		t.Fatalf("distant reports paired: %v", lone)
	}
}

func TestSettle(t *testing.T) {
	v := mkVerifier()
	ingest := func(v *Verifier, rs ...*Report) {
		t.Helper()
		for _, r := range rs {
			if _, err := v.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reports are cumulative: pair 2 is the newest and disputed, so the
	// session settles on its UE-attested cumulative total.
	ingest(v, rpt(ReporterUE, 1, 1_000_000, 0), rpt(ReporterTelco, 1, 1_000_000, 0),
		rpt(ReporterUE, 2, 2_000_000, 0), rpt(ReporterTelco, 2, 6_000_000, 0))
	s := v.Settle("sess", 2.0)
	if !s.Disputed {
		t.Fatal("disputed pair not marked")
	}
	// UE cumulative at pair 2: DL 2M + UL 200k.
	if s.VerifiedBytes != 2_200_000 {
		t.Fatalf("verified bytes = %d", s.VerifiedBytes)
	}
	wantAmount := 2_200_000.0 / 1e9 * 2.0
	if math.Abs(s.Amount-wantAmount) > 1e-9 {
		t.Fatalf("amount = %v, want %v", s.Amount, wantAmount)
	}
	if s.IDT != "telco-1" {
		t.Fatalf("IDT = %q", s.IDT)
	}
	// A dispute is sticky, but a later agreeing pair settles on the mean
	// of both sides again.
	ingest(v, rpt(ReporterUE, 3, 3_000_000, 0), rpt(ReporterTelco, 3, 3_000_000, 0))
	if s3 := v.Settle("sess", 2.0); !s3.Disputed || s3.VerifiedBytes != 3_300_000 {
		t.Fatalf("settlement after the dispute = %+v", s3)
	}
	// Of two pairs cut at one Rel, the first stands.
	tie := rpt(ReporterUE, 4, 4_000_000, 0)
	tie.Rel = 90 * time.Second
	tieT := *tie
	tieT.Reporter = ReporterTelco
	ingest(v, tie, &tieT)
	if s4 := v.Settle("sess", 2.0); s4.VerifiedBytes != 3_300_000 {
		t.Fatalf("a pair at the newest pair's Rel replaced it: %+v", s4)
	}
	// An agreeing final pair settles on the mean of both sides.
	v = mkVerifier()
	ingest(v, rpt(ReporterUE, 1, 1_000_000, 0), rpt(ReporterTelco, 1, 1_000_000, 0))
	s2 := v.Settle("sess", 2.0)
	if s2.Disputed || s2.VerifiedBytes != 1_100_000 {
		t.Fatalf("agreeing settlement = %+v", s2)
	}
	// No pairs -> zero settlement, whether the half of one is waiting, the
	// session has no report at all, or nobody bound it.
	v = mkVerifier()
	if z := v.Settle("sess", 2.0); z.VerifiedBytes != 0 || z.Amount != 0 || z.Unpaired != 0 || z.IDT != "telco-1" {
		t.Fatalf("empty settlement = %+v", z)
	}
	ingest(v, rpt(ReporterUE, 1, 1_000_000, 0))
	if z := v.Settle("sess", 2.0); z.VerifiedBytes != 0 || z.Amount != 0 || z.Unpaired != 1 {
		t.Fatalf("settlement on a lone half = %+v", z)
	}
	if z := v.Settle("nobody", 2.0); z != (Settlement{SessionRef: "nobody"}) {
		t.Fatalf("unbound settlement = %+v", z)
	}
}

// Property: the verifier flags a pair iff the discrepancy exceeds the
// loss-adjusted threshold, regardless of magnitudes.
func TestPropertyThresholdExact(t *testing.T) {
	f := func(ueBytes uint32, lossPct uint8, inflatePct uint8) bool {
		v := NewVerifier(DefaultVerifierConfig())
		v.BindSession("s", "u", "t")
		loss := float64(lossPct%30) / 100
		ue := &Report{SessionRef: "s", Reporter: ReporterUE, Seq: 1, DLBytes: uint64(ueBytes), QoS: QoSMetrics{DLLossRate: loss}}
		telcoBytes := uint64(float64(ueBytes) * (1 + float64(inflatePct%200)/100))
		telco := &Report{SessionRef: "s", Reporter: ReporterTelco, Seq: 1, DLBytes: telcoBytes}
		v.Ingest(ue)
		m, err := v.Ingest(telco)
		if err != nil {
			return false
		}
		threshold := float64(ue.DLBytes)*(loss+0.05) + 1500
		diff := math.Abs(float64(telcoBytes) - float64(ueBytes))
		return (m != nil) == (diff > threshold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: reputation stays within [0, 1] under any report mix.
func TestPropertyScoreBounded(t *testing.T) {
	f := func(vals []uint32) bool {
		v := NewVerifier(DefaultVerifierConfig())
		v.BindSession("s", "u", "t")
		for i, val := range vals {
			seq := uint32(i + 1)
			v.Ingest(&Report{SessionRef: "s", Reporter: ReporterUE, Seq: seq, DLBytes: 1_000_000})
			v.Ingest(&Report{SessionRef: "s", Reporter: ReporterTelco, Seq: seq, DLBytes: uint64(val)})
			s := v.TelcoScore("t")
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivered bytes never exceed what either side could have seen:
// for any epsilon, an honest pair (telco >= ue by exactly the radio loss)
// is never flagged when epsilon covers the loss, and always flagged when
// the discrepancy is far beyond epsilon + loss.
func TestPropertyEpsilonBoundaries(t *testing.T) {
	f := func(lossPct uint8, epsPct uint8) bool {
		loss := float64(lossPct%20) / 100
		eps := float64(epsPct%20)/100 + 0.01
		cfg := DefaultVerifierConfig()
		cfg.Epsilon = eps
		v := NewVerifier(cfg)
		v.BindSession("s", "u", "t")
		ueBytes := uint64(10_000_000)
		// Honest: telco counted the bytes the radio later lost.
		honestTelco := uint64(float64(ueBytes) * (1 + loss*0.9)) // within loss
		v.Ingest(&Report{SessionRef: "s", Reporter: ReporterUE, Seq: 1, DLBytes: ueBytes, QoS: QoSMetrics{DLLossRate: loss}})
		m1, _ := v.Ingest(&Report{SessionRef: "s", Reporter: ReporterTelco, Seq: 1, DLBytes: honestTelco})
		if m1 != nil {
			return false // honest flagged
		}
		// Brazen: 2x beyond anything loss+eps can explain.
		cheat := uint64(float64(ueBytes) * (2.5 + loss + eps))
		v.Ingest(&Report{SessionRef: "s", Reporter: ReporterUE, Seq: 2, DLBytes: ueBytes, QoS: QoSMetrics{DLLossRate: loss}})
		m2, _ := v.Ingest(&Report{SessionRef: "s", Reporter: ReporterTelco, Seq: 2, DLBytes: cheat})
		return m2 != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlackBytesAbsorbsInFlightButNotFraud(t *testing.T) {
	cfg := DefaultVerifierConfig()
	cfg.SlackBytes = 1 << 20
	v := NewVerifier(cfg)
	v.BindSession("s", "u", "t")
	// Final report of a short session: 2 MB delivered, ~800 KB in flight
	// at detach. Within slack -> tolerated.
	v.Ingest(&Report{SessionRef: "s", Reporter: ReporterUE, Seq: 1, DLBytes: 2_000_000})
	if m, _ := v.Ingest(&Report{SessionRef: "s", Reporter: ReporterTelco, Seq: 1, DLBytes: 2_800_000}); m != nil {
		t.Fatalf("in-flight gap flagged despite slack: %+v", m)
	}
	// 10% inflation on a 50 MB cycle: diff 5 MB > 50M*eps + 1M slack.
	v.Ingest(&Report{SessionRef: "s", Reporter: ReporterUE, Seq: 2, DLBytes: 50_000_000})
	if m, _ := v.Ingest(&Report{SessionRef: "s", Reporter: ReporterTelco, Seq: 2, DLBytes: 55_000_000}); m == nil {
		t.Fatal("10% inflation on a large cycle escaped despite slack")
	}
}
