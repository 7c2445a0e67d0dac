package billing

import (
	"bytes"
	"errors"
	"testing"

	"cellbricks/internal/pki"
)

// macRig is one reporter and its broker sharing a MAC key, the way a UE on
// a ticket or a bTelco under a pass does: a Stream on one side, the
// Open → Authenticate → IngestOpened pipeline on the other.
type macRig struct {
	t        testing.TB
	broker   *pki.KeyPair
	reporter *pki.KeyPair
	sealer   *pki.Sealer
	mac      pki.Ticket
	stream   Stream
	v        *Verifier
	rep      Reporter
	seq      uint32
	ref      string // session the next report is for; "" = mkVerifier's
}

func newMACRig(t testing.TB, rep Reporter) *macRig {
	t.Helper()
	g := &macRig{t: t, broker: pair(t, 0xC0), reporter: pair(t, 0xC1), v: mkVerifier(), rep: rep}
	g.mac.Key[0] = 0xC2
	var err error
	if g.sealer, err = pki.NewSealer(g.broker.Public()); err != nil {
		t.Fatal(err)
	}
	return g
}

// next seals the reporter's next report on its stream.
func (g *macRig) next() *SealedReport {
	g.t.Helper()
	g.seq++
	r := rpt(g.rep, g.seq, 1000*uint64(g.seq), 0)
	if g.ref != "" {
		r.SessionRef = g.ref
	}
	env, err := g.stream.Seal(r, g.reporter, g.sealer, &g.mac)
	if err != nil {
		g.t.Fatal(err)
	}
	return env
}

// ingest runs the broker's three steps on env.
func (g *macRig) ingest(env *SealedReport) (Opened, error) {
	g.t.Helper()
	o, err := Open(env, g.broker)
	if err != nil {
		return o, err
	}
	if err := o.Authenticate(g.reporter.Public(), &g.mac); err != nil {
		return o, err
	}
	if g.v.MustSign(&o) {
		return o, ErrMustSign
	}
	_, err = g.v.IngestOpened(&o)
	return o, err
}

func (g *macRig) mustIngest(env *SealedReport) Opened {
	g.t.Helper()
	o, err := g.ingest(env)
	if err != nil {
		g.t.Fatalf("seq %d: %v", o.Report.Seq, err)
	}
	return o
}

// retag is what a reporter playing with its checkpoints does, and nobody
// else can: MAC env again so that it carries cp (nil: none) instead of the
// checkpoint its stream gave it.
func (g *macRig) retag(env *SealedReport, cp *Checkpoint) *SealedReport {
	g.t.Helper()
	o, err := Open(env, g.broker)
	if err != nil {
		g.t.Fatal(err)
	}
	tag := tagOf(&g.mac, o.digest, cp)
	return &SealedReport{Sealed: env.Sealed, Sig: tag[:], Checkpoint: cp}
}

// unpenalised fails the test if anybody's reputation moved.
func (g *macRig) unpenalised() {
	g.t.Helper()
	if s := g.v.TelcoScore("telco-1"); s != 1 || g.v.Suspect("user-1") {
		g.t.Fatalf("reputation moved: bTelco score %v, UE suspect %v", s, g.v.Suspect("user-1"))
	}
}

// A stream signs its first report, MACs the rest, and signs one checkpoint
// over each 256 MAC'd ones; without a key it is SealOn, and leaves no trace.
func TestStreamSignsFirstThenMACsAndCheckpoints(t *testing.T) {
	g := newMACRig(t, ReporterTelco)
	if env := g.next(); len(env.Sig) != 64 || env.Checkpoint != nil {
		t.Fatalf("first report: %d-byte Sig, checkpoint %v", len(env.Sig), env.Checkpoint != nil)
	}
	for i := 1; i <= 2*checkpointEvery; i++ {
		env := g.next()
		if len(env.Sig) != macSize {
			t.Fatalf("MAC'd report %d carries a %d-byte Sig", i, len(env.Sig))
		}
		if due := i%checkpointEvery == 0; (env.Checkpoint != nil) != due {
			t.Fatalf("MAC'd report %d: checkpoint %v", i, env.Checkpoint != nil)
		}
		if cp := env.Checkpoint; cp != nil && len(cp.Digests) != checkpointEvery {
			t.Fatalf("a checkpoint of %d digests", len(cp.Digests))
		}
		// A keyless report in between is signed and is not counted.
		if i == 100 {
			g.seq++
			env, err := g.stream.Seal(rpt(g.rep, g.seq, 1, 0), g.reporter, g.sealer, nil)
			if err != nil || len(env.Sig) != 64 || env.Checkpoint != nil {
				t.Fatalf("keyless report: %v, %d-byte Sig", err, len(env.Sig))
			}
		}
	}
}

// The envelope without a checkpoint is byte for byte the parent's: two
// length-prefixed fields and nothing else.
func TestEnvelopeWithoutCheckpointIsUnchanged(t *testing.T) {
	env := &SealedReport{Sealed: []byte{1, 2, 3}, Sig: []byte{4, 5}}
	want := []byte{0, 0, 0, 3, 1, 2, 3, 0, 0, 0, 2, 4, 5}
	if got := env.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("marshalled %v, want %v", got, want)
	}
	env.Checkpoint = &Checkpoint{Digests: []Digest{{7}, {8}}, Sig: []byte{9}}
	got, err := UnmarshalSealedReport(env.Marshal())
	if err != nil || got.Checkpoint == nil || len(got.Checkpoint.Digests) != 2 ||
		got.Checkpoint.Digests[1] != (Digest{8}) || !bytes.Equal(got.Checkpoint.Sig, []byte{9}) {
		t.Fatalf("checkpoint round trip: %+v, %v", got, err)
	}
	if !bytes.HasPrefix(env.Marshal(), want) {
		t.Fatal("the checkpoint is not a trailing field")
	}
}

// What a dispute needs: the report body, the checkpoint and the reporter's
// public key — and nothing of the broker's.
func TestVerifyCheckpointIsAThirdPartyCheck(t *testing.T) {
	g := newMACRig(t, ReporterUE)
	var bodies []*Report
	var cp *Checkpoint
	for cp == nil {
		env := g.next()
		o := g.mustIngest(env)
		bodies = append(bodies, o.Report)
		if o.Kept {
			cp = env.Checkpoint
		}
	}
	pub := g.reporter.Public()
	for _, r := range bodies[1:] { // the first was signed, not MAC'd
		if err := VerifyCheckpoint(pub, cp, r); err != nil {
			t.Fatalf("seq %d: %v", r.Seq, err)
		}
	}
	if err := VerifyCheckpoint(pub, cp, bodies[0]); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("a report the checkpoint does not list: %v", err)
	}
	altered := *bodies[5]
	altered.DLBytes++
	if err := VerifyCheckpoint(pub, cp, &altered); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("altered body: %v", err)
	}
	if err := VerifyCheckpoint(g.broker.Public(), cp, bodies[5]); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("checkpoint under somebody else's key: %v", err)
	}
	forged := &Checkpoint{Digests: append([]Digest{digestOf(altered.Marshal())}, cp.Digests...), Sig: cp.Sig}
	if err := VerifyCheckpoint(pub, forged, &altered); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("digest slipped into a signed list: %v", err)
	}
}

func TestAuthenticateLadder(t *testing.T) {
	g := newMACRig(t, ReporterTelco)
	g.next()
	other := pki.Ticket{Key: [32]byte{0xEE}}
	var withCP *SealedReport
	for withCP == nil {
		if env := g.next(); env.Checkpoint != nil {
			withCP = env
		}
	}
	macd := g.next()
	signed, err := SealOn(rpt(g.rep, 999, 1, 0), g.reporter, g.sealer)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(env *SealedReport, f func(*SealedReport)) *SealedReport {
		c := *env
		c.Sig = bytes.Clone(env.Sig)
		if env.Checkpoint != nil {
			cp := *env.Checkpoint
			cp.Sig = bytes.Clone(cp.Sig)
			c.Checkpoint = &cp
		}
		f(&c)
		return &c
	}
	for _, c := range []struct {
		name string
		env  *SealedReport
		pub  pki.PublicIdentity
		mac  *pki.Ticket
		want error
	}{
		{"MAC under the key", macd, g.reporter.Public(), &g.mac, nil},
		{"MAC under another key", macd, g.reporter.Public(), &other, ErrBadReportSignature},
		{"MAC, and the broker derives no key", macd, g.reporter.Public(), nil, ErrBadReportSignature},
		{"MAC with a flipped tag", flip(macd, func(e *SealedReport) { e.Sig[0] ^= 1 }), g.reporter.Public(), &g.mac, ErrBadReportSignature},
		{"signed, a key on offer", signed, g.reporter.Public(), &g.mac, nil},
		{"signed by somebody else", signed, g.broker.Public(), &g.mac, ErrBadReportSignature},
		{"signature cut to MAC length", flip(signed, func(e *SealedReport) { e.Sig = e.Sig[:macSize] }), g.reporter.Public(), &g.mac, ErrBadReportSignature},
		{"checkpoint rides along", withCP, g.reporter.Public(), &g.mac, nil},
		{"checkpoint stripped on the way", flip(withCP, func(e *SealedReport) { e.Checkpoint = nil }), g.reporter.Public(), &g.mac, ErrBadReportSignature},
		{"somebody else's checkpoint hung on a MAC'd report", flip(macd, func(e *SealedReport) { e.Checkpoint = withCP.Checkpoint }), g.reporter.Public(), &g.mac, ErrBadReportSignature},
		{"signed, with a checkpoint (the resend of a refused carrier)", flip(signed, func(e *SealedReport) { e.Checkpoint = withCP.Checkpoint }), g.reporter.Public(), nil, nil},
		{"checkpoint with a flipped signature", flip(withCP, func(e *SealedReport) { e.Checkpoint.Sig[0] ^= 1 }), g.reporter.Public(), &g.mac, ErrBadReportSignature},
		{"checkpoint with a flipped signature, MAC'd over again", g.retag(withCP, &Checkpoint{Digests: withCP.Checkpoint.Digests, Sig: bytes.Repeat([]byte{1}, 64)}), g.reporter.Public(), &g.mac, ErrBadCheckpoint},
		{"checkpoint under another reporter's key", withCP, g.broker.Public(), &g.mac, ErrBadCheckpoint},
	} {
		o, err := Open(c.env, g.broker)
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		if err := o.Authenticate(c.pub, c.mac); !errors.Is(err, c.want) || (c.want == nil && err != nil) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	// OpenVerified offers no key: a signed envelope passes, a MAC'd one cannot.
	if _, err := OpenVerified(signed, g.broker, g.reporter.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVerified(macd, g.broker, g.reporter.Public()); !errors.Is(err, ErrBadReportSignature) {
		t.Fatalf("OpenVerified on a MAC'd envelope: %v", err)
	}
}

// The honest flow: every checkpoint is kept, nothing is pending after it,
// nobody is penalised — for a bTelco and for a UE.
func TestAuditHonestStream(t *testing.T) {
	for _, rep := range []Reporter{ReporterTelco, ReporterUE} {
		g := newMACRig(t, rep)
		kept := 0
		for i := 0; i < 1+3*checkpointEvery; i++ {
			o := g.mustIngest(g.next())
			if o.Refused || o.Lapsed {
				t.Fatalf("report %d: %+v", i, o)
			}
			if o.Kept {
				kept++
			}
		}
		id := map[Reporter]string{ReporterTelco: "telco-1", ReporterUE: "user-1"}[rep]
		if got := len(g.v.Checkpoints(rep, id)); kept != 3 || got != 3 {
			t.Fatalf("reporter %d: %d checkpoints kept, %d held, want 3", rep, kept, got)
		}
		if a := g.v.audits[reporterID{rep, id}]; len(a.pending) != 0 || a.early != nil || a.mustSign {
			t.Fatalf("audit after an honest run: %d pending, early %v, mustSign %v", len(a.pending), a.early, a.mustSign)
		}
		if g.v.TelcoScore("telco-1") != 1 || g.v.Suspect("user-1") {
			t.Fatal("an honest reporter was penalised")
		}
	}
}

// Loss and reordering are not misconduct: a report the broker never sees, a
// checkpoint that overtakes reports it lists, a report that overtakes the
// checkpoint listing it, and a broker that lost its pending digests.
func TestAuditToleratesLossReorderAndRestart(t *testing.T) {
	g := newMACRig(t, ReporterTelco)
	g.v.BindSession("late", "user-1", "telco-1")
	g.mustIngest(g.next()) // signed
	var held []*SealedReport
	for i := 1; i <= 2*checkpointEvery; i++ {
		// The overtaken reports are another session's: within one session
		// the replay gate insists on order.
		g.ref = ""
		if i >= 250 && i < checkpointEvery {
			g.ref = "late"
		}
		env := g.next()
		switch {
		case i == 10: // lost for good
		case i >= 250 && i < checkpointEvery: // overtaken by checkpoint 1
			held = append(held, env)
		case i == checkpointEvery:
			if o := g.mustIngest(env); !o.Kept {
				t.Fatal("checkpoint 1 not kept")
			}
			for _, h := range held {
				g.mustIngest(h)
			}
		default:
			if o := g.mustIngest(env); o.Lapsed || o.Refused {
				t.Fatalf("report %d: %+v", i, o)
			}
		}
	}
	a := g.v.audits[reporterID{ReporterTelco, "telco-1"}]
	if len(a.pending) != 0 || len(a.kept) != 2 || a.mustSign || g.v.TelcoScore("telco-1") != 1 {
		t.Fatalf("%d pending, %d kept, mustSign %v, score %v", len(a.pending), len(a.kept), a.mustSign, g.v.TelcoScore("telco-1"))
	}
	if len(a.early) != 0 {
		t.Fatalf("%d digests still expected early after the second checkpoint", len(a.early))
	}
	// A restarted broker: same sessions, no audit state. The next checkpoint
	// lists 255 reports it never saw; it keeps it and penalises nothing.
	g.v, g.ref = mkVerifier(), ""
	for i := 1; i < checkpointEvery; i++ {
		g.next()
	}
	if o := g.mustIngest(g.next()); !o.Kept || o.Lapsed {
		t.Fatalf("first checkpoint after a restart: %+v", o)
	}
}

// A report two successive checkpoints leave out is an omission; 512
// uncovered reports are an overdue checkpoint. Either way the reporter has
// lapsed: MAC mode is refused until it signs, and nobody's reputation moves
// — the broker cannot tell either from a reboot or a lost frame.
func TestAuditOmissionAndOverdue(t *testing.T) {
	t.Run("omission", func(t *testing.T) {
		g := newMACRig(t, ReporterTelco)
		g.mustIngest(g.next())
		// The omitted report comes from a second stream under the same keys,
		// so the first one's checkpoints never list it.
		side := &macRig{t: t, broker: g.broker, reporter: g.reporter, sealer: g.sealer, mac: g.mac, v: g.v, rep: g.rep, seq: 10_000}
		side.next()
		g.mustIngest(side.next())
		for i := 1; i <= 2*checkpointEvery; i++ {
			g.seq = uint32(20_000 + i) // stay ahead of the side stream's Seq
			o := g.mustIngest(g.next())
			switch i {
			case checkpointEvery: // first miss: could still be an overtaking report
				if !o.Kept || o.Lapsed {
					t.Fatalf("checkpoint 1: %+v", o)
				}
			case 2 * checkpointEvery:
				if !o.Refused || !o.Lapsed {
					t.Fatalf("checkpoint 2: %+v", o)
				}
			}
		}
		g.unpenalised()
		if len(g.v.Checkpoints(ReporterTelco, "telco-1")) != 2 {
			t.Fatal("an omitting checkpoint is still evidence for what it lists")
		}
		if _, err := g.ingest(g.next()); !errors.Is(err, ErrMustSign) {
			t.Fatalf("MAC'd report after an omission: %v", err)
		}
		g.seq++
		signed, _ := SealOn(rpt(g.rep, g.seq, 1, 0), g.reporter, g.sealer)
		g.mustIngest(signed)
		g.mustIngest(g.next())
	})
	t.Run("overdue", func(t *testing.T) {
		g := newMACRig(t, ReporterUE)
		g.mustIngest(g.next())
		for i := 1; i <= 2*checkpointEvery; i++ {
			env := g.retag(g.next(), nil) // any checkpoint withheld
			if o := g.mustIngest(env); o.Lapsed != (i == 2*checkpointEvery) {
				t.Fatalf("report %d: lapsed %v", i, o.Lapsed)
			}
		}
		g.unpenalised()
		if _, err := g.ingest(g.next()); !errors.Is(err, ErrMustSign) {
			t.Fatalf("MAC'd report from an overdue reporter: %v", err)
		}
	})
}

// What an honest reporter can do to look like an omitter, and what it costs
// it: one refused report, answered by Upload with the same report signed.
func TestAuditLapsesOfAnHonestReporter(t *testing.T) {
	// upload is the reporter's side of the refusal: Stream.Upload over the
	// rig's broker.
	upload := func(g *macRig) (sent []*SealedReport, err error) {
		g.seq++
		err = g.stream.Upload(rpt(g.rep, g.seq, 1000*uint64(g.seq), 0), g.reporter, g.sealer, &g.mac, func(env *SealedReport) error {
			sent = append(sent, env)
			_, err := g.ingest(env)
			return err
		})
		return sent, err
	}
	recovers := func(t *testing.T, g *macRig) {
		t.Helper()
		g.unpenalised()
		sent, err := upload(g)
		if err != nil || len(sent) != 2 || len(sent[0].Sig) != macSize || len(sent[1].Sig) != 64 {
			t.Fatalf("upload into a lapse: %d envelopes, %v", len(sent), err)
		}
		if sent, err := upload(g); err != nil || len(sent) != 1 || len(sent[0].Sig) != macSize {
			t.Fatalf("upload after the signed one: %d envelopes, %v", len(sent), err)
		}
		g.unpenalised()
	}
	for _, rep := range []Reporter{ReporterTelco, ReporterUE} {
		t.Run("restart mid-interval", func(t *testing.T) {
			g := newMACRig(t, rep)
			for i := 0; i < 100; i++ { // one signed, 99 MAC'd and never to be covered
				g.mustIngest(g.next())
			}
			g.stream = Stream{} // a device reboot, a bTelco process restart
			lapsedAt := 0
			for i := 1; lapsedAt == 0; i++ {
				if o := g.mustIngest(g.next()); o.Lapsed {
					lapsedAt = i
				}
			}
			// The new stream's signed first report, then its second checkpoint.
			if lapsedAt != 1+2*checkpointEvery {
				t.Fatalf("lapsed at report %d of the new stream", lapsedAt)
			}
			recovers(t, g)
		})
		t.Run("checkpoint carrier lost, nothing resent", func(t *testing.T) {
			g := newMACRig(t, rep)
			lapsedAt := 0
			for i := 0; lapsedAt == 0; i++ {
				env := g.next()
				if i == checkpointEvery { // the first carrier never arrives
					continue
				}
				if o := g.mustIngest(env); o.Lapsed {
					lapsedAt = i
				}
			}
			// Checkpoint 2 is the first miss of the 255 orphans, checkpoint 3 the second.
			if lapsedAt != 3*checkpointEvery {
				t.Fatalf("lapsed at report %d", lapsedAt)
			}
			recovers(t, g)
		})
	}
	t.Run("refused carrier keeps its checkpoint", func(t *testing.T) {
		g := newMACRig(t, ReporterTelco)
		for i := 0; i < checkpointEvery; i++ {
			g.mustIngest(g.next())
		}
		// The broker forgets the reporter's key (a restart): the 256th MAC'd
		// report, the carrier, is refused and comes back signed.
		known := g.mac
		g.mac.Key[0] ^= 1
		g.seq++
		var sent []*SealedReport
		err := g.stream.Upload(rpt(g.rep, g.seq, 1, 0), g.reporter, g.sealer, &known, func(env *SealedReport) error {
			sent = append(sent, env)
			o, err := g.ingest(env)
			if errors.Is(err, ErrBadReportSignature) && o.MACd {
				return ErrMustSign // the broker's answer to a MAC it has no key for
			}
			if err == nil && !o.Kept {
				t.Error("the checkpoint did not arrive with the signed resend")
			}
			return err
		})
		if err != nil || len(sent) != 2 || sent[1].Checkpoint == nil || sent[1].Checkpoint != sent[0].Checkpoint {
			t.Fatalf("%d envelopes, %v", len(sent), err)
		}
	})
	t.Run("no resend of a signed report or on another error", func(t *testing.T) {
		g := newMACRig(t, ReporterTelco)
		for _, c := range []struct {
			name string
			mac  *pki.Ticket
			fail error
		}{
			{"the stream's first report, signed whatever the key", &g.mac, ErrMustSign},
			{"a keyless report", nil, ErrMustSign},
			{"a MAC'd report that is a replay", &g.mac, ErrReplayedReport},
		} {
			calls := 0
			err := g.stream.Upload(rpt(g.rep, 1, 1, 0), g.reporter, g.sealer, c.mac, func(*SealedReport) error {
				calls++
				return c.fail
			})
			if calls != 1 || !errors.Is(err, c.fail) {
				t.Fatalf("%s: %d uploads, %v", c.name, calls, err)
			}
		}
	})
}

// A checkpoint seen before is ignored; the report that carries it is judged
// on its own, and a replayed MAC'd report is still a replay.
func TestAuditReplays(t *testing.T) {
	g := newMACRig(t, ReporterTelco)
	g.mustIngest(g.next())
	var bearer *SealedReport
	for bearer == nil {
		env := g.next()
		g.mustIngest(env)
		if env.Checkpoint != nil {
			bearer = env
		}
	}
	before := g.v.TelcoScore("telco-1")
	if _, err := g.ingest(bearer); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("replayed envelope: %v", err)
	}
	if g.v.TelcoScore("telco-1") >= before {
		t.Fatal("replayed MAC'd report not penalised")
	}
	fresh := g.retag(g.next(), bearer.Checkpoint)
	score := g.v.TelcoScore("telco-1")
	if o := g.mustIngest(fresh); !o.Refused || o.Kept || o.Lapsed || g.v.TelcoScore("telco-1") < score {
		t.Fatalf("old checkpoint on a fresh report: %+v", o)
	}
	if len(g.v.Checkpoints(ReporterTelco, "telco-1")) != 1 {
		t.Fatal("a replayed checkpoint was kept twice")
	}
}

// The kept ring is bounded.
func TestAuditKeepsAtMost64Checkpoints(t *testing.T) {
	g := newMACRig(t, ReporterTelco)
	for i := 0; i < 1+(keptCheckpoints+2)*checkpointEvery; i++ {
		g.mustIngest(g.next())
	}
	if got := len(g.v.Checkpoints(ReporterTelco, "telco-1")); got != keptCheckpoints {
		t.Fatalf("%d checkpoints held, want %d", got, keptCheckpoints)
	}
}
