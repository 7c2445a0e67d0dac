package billing

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
)

// The billing leg after first contact (DESIGN.md §2.10). A report is
// authentic toward the broker by a MAC under a key its reporter's attach
// already proved — the UE's ticket, the bTelco's pass — and non-repudiable
// toward a third party by one signed Checkpoint per checkpointEvery reports,
// which lists their digests. The paper's sign-then-seal is what a Stream
// does without a key, and is always accepted.

const (
	// checkpointEvery is how many MAC'd reports of one reporter a checkpoint
	// covers, and therefore one more than how many the broker can hold
	// without transferable proof. A constant for the reason sap's
	// receiptEvery is one: nobody can state a better value for a
	// deployment, and a reporter that wants a signature on a given report
	// signs it.
	checkpointEvery = 256
	// keptCheckpoints bounds the verified checkpoints held per reporter.
	keptCheckpoints = 64
	// macSize is how the broker tells the mode of an envelope: a Sig of
	// exactly this length is a MAC, anything else is judged as a signature.
	macSize    = 32
	digestSize = sha256.Size

	reportMACLabel  = "cellbricks-report-mac-v1"
	checkpointLabel = "cellbricks-checkpoint-v1"
)

// Digest commits to one report body: its SHA-256. What it is a digest of is
// said where it is used, by the label of the MAC and of the checkpoint.
type Digest [digestSize]byte

func digestOf(body []byte) Digest { return sha256.Sum256(body) }

// tagOf is the MAC of a report: over the body's digest and, when a
// checkpoint rides along, that checkpoint's signature — so whoever relays
// the envelope cannot strip or swap the checkpoint without breaking the tag.
func tagOf(mac *pki.Ticket, d Digest, cp *Checkpoint) [macSize]byte {
	msg := d[:]
	if cp != nil {
		msg = append(msg, cp.Sig...)
	}
	return mac.Tag(reportMACLabel, msg)
}

// Checkpoint is a reporter's signed statement that it sent the reports
// Digests commits to: what makes a MAC'd report disputable.
type Checkpoint struct {
	Digests []Digest
	Sig     []byte // reporter's signature over signedBytes
}

// digests lists the digests end to end: how a checkpoint both signs and
// carries them.
func (c *Checkpoint) digests(cd codec.Coder) codec.Coder {
	for i := range c.Digests {
		cd.Raw(c.Digests[i][:])
	}
	return cd
}

func (c *Checkpoint) signed(cd codec.Coder) codec.Coder {
	label := checkpointLabel
	cd.String(&label)
	return c.digests(cd)
}

func (c *Checkpoint) signedBytes() []byte { return codec.Encode(c.signed) }

var errCheckpointSize = fmt.Errorf("billing: a checkpoint of no digests or more than %d", checkpointEvery)

// fields lists the checkpoint as it rides an envelope: the digests behind
// their length in bytes, then the signature. Read, the count is checked
// against checkpointEvery before anything is allocated from it.
func (c *Checkpoint) fields(cd codec.Coder) codec.Coder {
	codec.List(&cd, &c.Digests, digestSize, checkpointEvery, errCheckpointSize)
	cd.Check(len(c.Digests) > 0, errCheckpointSize)
	cd = c.digests(cd)
	cd.Bytes(&c.Sig)
	return cd
}

// ErrBadCheckpoint is VerifyCheckpoint's refusal.
var ErrBadCheckpoint = errors.New("billing: checkpoint does not prove the report")

// VerifyCheckpoint is what a third party runs with nothing but the
// reporter's public key: c is reporterPub's statement, and it covers r.
func VerifyCheckpoint(reporterPub pki.PublicIdentity, c *Checkpoint, r *Report) error {
	if c == nil || r == nil {
		return ErrBadCheckpoint
	}
	if err := reporterPub.Verify(c.signedBytes(), c.Sig); err != nil {
		return fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	if !slices.Contains(c.Digests, digestOf(r.Marshal())) {
		return fmt.Errorf("%w: session %q seq %d is not in it", ErrBadCheckpoint, r.SessionRef, r.Seq)
	}
	return nil
}

// Stream is the reporter's side of one reporter→broker relationship: it
// decides the mode of each envelope and accumulates the digests the next
// checkpoint will sign. The zero value is ready; safe for concurrent use.
type Stream struct {
	mu      sync.Mutex
	started bool     // the first report has gone out (signed)
	digests []Digest // MAC'd since the last checkpoint, < checkpointEvery
	body    []byte   // scratch: a MAC'd report's body, encoded to be digested
}

// Seal seals r on sealer and authenticates it. With a MAC key — and once
// the stream's first report has gone out signed — Sig is a MAC under mac
// and every checkpointEvery-th envelope carries the signed checkpoint over
// those since the last. Without one it is sign-then-seal, byte for byte
// what the paper specifies; that envelope adds nothing to the next
// checkpoint, and needs no stream at all (SealOn passes none).
func (st *Stream) Seal(r *Report, signer *pki.KeyPair, sealer *pki.Sealer, mac *pki.Ticket) (*SealedReport, error) {
	sealed, err := sealer.Seal(r.fields)
	if err != nil {
		return nil, err
	}
	env := &SealedReport{Sealed: sealed}
	var d Digest
	var due []Digest
	signed := mac == nil
	if st != nil {
		st.mu.Lock()
		if !st.started {
			st.started, signed = true, true
		}
		if !signed {
			st.body = codec.Reencode(st.body, r.fields)
			d = digestOf(st.body)
			if st.digests = append(st.digests, d); len(st.digests) == checkpointEvery {
				due, st.digests = st.digests, nil
			}
		}
		st.mu.Unlock()
	}
	if signed {
		env.Sig = signer.Sign(sealed)
		return env, nil
	}
	if due != nil {
		env.Checkpoint = &Checkpoint{Digests: due}
		env.Checkpoint.Sig = signer.Sign(env.Checkpoint.signedBytes())
	}
	tag := tagOf(mac, d, env.Checkpoint)
	env.Sig = tag[:]
	return env, nil
}

// Upload seals r like Seal and hands the envelope to up, the caller's way
// to the broker. A MAC'd envelope the broker refuses with ErrMustSign — it
// holds no key for this reporter (it restarted, the certificate changed,
// somebody stripped the checkpoint), or the reporter's checkpoints lapsed —
// goes out once more, signed, with the checkpoint the refused one carried:
// the same report, so the session's pairing by Seq is undisturbed.
func (st *Stream) Upload(r *Report, signer *pki.KeyPair, sealer *pki.Sealer, mac *pki.Ticket, up func(*SealedReport) error) error {
	env, err := st.Seal(r, signer, sealer, mac)
	if err != nil {
		return err
	}
	if err = up(env); !errors.Is(err, ErrMustSign) || len(env.Sig) != macSize {
		return err
	}
	signed, err := st.Seal(r, signer, sealer, nil)
	if err != nil {
		return err
	}
	signed.Checkpoint = env.Checkpoint
	return up(signed)
}

// Opened is an envelope the broker has decrypted and decoded — the cheap
// half of ingestion — and then what Authenticate and IngestOpened found.
type Opened struct {
	Report *Report
	// MACd: Sig is a MAC rather than a signature (by its length; it is
	// Authenticate that checks it).
	MACd bool
	// Kept / Refused: IngestOpened kept the envelope's checkpoint as
	// evidence, or declined it (replayed, or leaving out what it must
	// cover). Lapsed: the reporter's checkpoints are overdue or incomplete
	// as of this report, and its next MAC'd one is ErrMustSign.
	Kept, Refused, Lapsed bool

	env    *SealedReport
	digest Digest
}

// Open decrypts s with the broker's key and decodes the body. Nothing is
// authenticated yet, but GCM has vouched for the box: garbage stops here,
// before any signature is looked at.
func Open(s *SealedReport, brokerKey *pki.KeyPair) (Opened, error) {
	body, err := brokerKey.Open(s.Sealed)
	if err != nil {
		return Opened{}, err
	}
	r, err := UnmarshalReport(body)
	if err != nil {
		return Opened{}, err
	}
	o := Opened{Report: r, MACd: len(s.Sig) == macSize, env: s}
	if o.MACd {
		o.digest = digestOf(body)
	}
	return o, nil
}

// Authenticate is the one place an envelope's mode is decided. A Sig of
// macSize bytes is a MAC (tagOf) and must verify under mac (nil: the broker
// derives no key for this reporter, so none can); anything else must be
// reporterPub's signature over the box. A checkpoint riding along must
// carry reporterPub's signature too.
func (o *Opened) Authenticate(reporterPub pki.PublicIdentity, mac *pki.Ticket) error {
	if o.MACd {
		if mac == nil {
			return ErrBadReportSignature
		}
		if tag := tagOf(mac, o.digest, o.env.Checkpoint); subtle.ConstantTimeCompare(tag[:], o.env.Sig) != 1 {
			return ErrBadReportSignature
		}
	} else if err := reporterPub.Verify(o.env.Sealed, o.env.Sig); err != nil {
		return ErrBadReportSignature
	}
	if cp := o.env.Checkpoint; cp != nil {
		if err := reporterPub.Verify(cp.signedBytes(), cp.Sig); err != nil {
			return fmt.Errorf("%w: %w", ErrBadReportSignature, ErrBadCheckpoint)
		}
	}
	return nil
}

// ErrMustSign refuses a MAC'd report and asks for the same one signed
// (Stream.Upload answers it): the broker has no key the MAC verifies under,
// or the reporter's checkpoints are overdue or left out a report the broker
// holds. Signed reports are accepted as ever, and the first lifts a lapse.
var ErrMustSign = errors.New("billing: reporter must sign this report")

// reporterID names one report stream as the broker sees it.
type reporterID struct {
	rep Reporter
	id  string // idU or idT
}

// audit is the broker's view of one reporter's MAC'd reports: soft state,
// rebuilt from nothing after a restart.
type audit struct {
	// pending holds the digest of every MAC'd report ingested and not yet
	// covered, in ingest order; the first old of them already survived one
	// checkpoint, and a second miss is an omission.
	pending []Digest
	old     int
	// early holds what the last checkpoint listed and the broker had not
	// ingested: a report overtaken by the envelope that carried it.
	early    map[Digest]struct{}
	kept     []*Checkpoint // verified, oldest first, at most keptCheckpoints
	mustSign bool
}

// reporterOf names the stream a report of reporter rep on session s belongs to.
func (s *session) reporterOf(rep Reporter) reporterID {
	if rep == ReporterUE {
		return reporterID{ReporterUE, s.IDU}
	}
	return reporterID{ReporterTelco, s.IDT}
}

// MustSign reports whether o is a MAC'd envelope from a reporter that is
// refused MAC mode: the caller answers ErrMustSign and ingests nothing.
func (v *Verifier) MustSign(o *Opened) bool {
	s := v.sessions[o.Report.SessionRef]
	if !o.MACd || s == nil {
		return false
	}
	a := v.audits[s.reporterOf(o.Report.Reporter)]
	return a != nil && a.mustSign
}

// IngestOpened is Ingest for an authenticated envelope: an accepted body is
// kept with its session as evidence, and the reporter's checkpoint audit
// follows (DESIGN.md §2.10). A report that Ingest rejects — a replay, an
// unknown session — is not kept and leaves the audit untouched.
//
// A lapse — a digest two successive checkpoints left out, or
// 2·checkpointEvery of them with no checkpoint at all — costs the reporter
// MAC mode until it signs, and the broker the uncovered digests as
// evidence. It costs no reputation: a reporter that rebooted mid-interval,
// or whose checkpoint was lost on the way, looks exactly the same.
func (v *Verifier) IngestOpened(o *Opened) (*Mismatch, error) {
	s, mm, err := v.ingest(o.Report)
	if err != nil {
		return mm, err
	}
	s.bodies = append(s.bodies, o.Report)
	who := s.reporterOf(o.Report.Reporter)
	a, cp := v.audits[who], o.env.Checkpoint
	if a == nil {
		if !o.MACd && cp == nil {
			return mm, nil
		}
		a = &audit{}
		v.audits[who] = a
	}
	if !o.MACd {
		a.mustSign = false
	} else if _, listed := a.early[o.digest]; listed {
		delete(a.early, o.digest)
	} else if a.pending = append(a.pending, o.digest); len(a.pending) >= 2*checkpointEvery {
		a.pending, a.old = nil, 0
		o.Lapsed = true
	}
	if cp != nil {
		if a.replayed(cp) {
			o.Refused = true
		} else if a.apply(cp) {
			o.Refused, o.Lapsed = true, true
		} else {
			o.Kept = true
		}
	}
	if o.Lapsed {
		a.mustSign = true
	}
	return mm, nil
}

func (a *audit) replayed(cp *Checkpoint) bool {
	for _, k := range a.kept {
		if string(k.Sig) == string(cp.Sig) {
			return true
		}
	}
	return false
}

// apply keeps a verified checkpoint and settles pending against it,
// reporting whether some digest has now been left out twice.
func (a *audit) apply(cp *Checkpoint) (omitted bool) {
	if len(a.kept) >= keptCheckpoints {
		a.kept = append(a.kept[:0], a.kept[1:]...)
	}
	a.kept = append(a.kept, cp)
	listed := make(map[Digest]struct{}, len(cp.Digests))
	for _, d := range cp.Digests {
		listed[d] = struct{}{}
	}
	left := a.pending[:0]
	for i, d := range a.pending {
		if _, ok := listed[d]; ok {
			delete(listed, d)
		} else if i < a.old {
			omitted = true
		} else {
			left = append(left, d)
		}
	}
	if len(listed) == 0 {
		listed = nil
	}
	a.pending, a.old, a.early = left, len(left), listed
	return omitted
}

// Checkpoints returns the verified checkpoints held from one reporter —
// idU for a UE, idT for a bTelco — oldest first.
func (v *Verifier) Checkpoints(rep Reporter, id string) []*Checkpoint {
	if a := v.audits[reporterID{rep, id}]; a != nil {
		return slices.Clone(a.kept)
	}
	return nil
}
