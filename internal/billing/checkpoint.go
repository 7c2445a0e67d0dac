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

	digestLabel     = "cellbricks-report-v1"
	reportMACLabel  = "cellbricks-report-mac-v1"
	checkpointLabel = "cellbricks-checkpoint-v1"
)

// Digest commits to one report body.
type Digest [digestSize]byte

// digestOf hashes label ‖ body in one stack buffer: a body is ~120 bytes,
// and a longer one spills to the heap and stays correct.
func digestOf(body []byte) Digest {
	buf := make([]byte, 0, 192)
	buf = append(buf, digestLabel...)
	buf = append(buf, body...)
	return sha256.Sum256(buf)
}

// Checkpoint is a reporter's signed statement that it sent the reports
// Digests commits to: what makes a MAC'd report disputable.
type Checkpoint struct {
	Digests []Digest
	Sig     []byte // reporter's signature over signedBytes
}

func (c *Checkpoint) signedBytes() []byte {
	w := codec.NewWriter(len(checkpointLabel) + 8 + digestSize*len(c.Digests))
	w.String(checkpointLabel)
	return appendDigests(w.Out(), c.Digests)
}

// appendDigests appends ds end to end: how a checkpoint's list is both
// signed and carried.
func appendDigests(dst []byte, ds []Digest) []byte {
	for i := range ds {
		dst = append(dst, ds[i][:]...)
	}
	return dst
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
}

// Seal seals r on sealer and authenticates it. With a MAC key — and once
// the stream's first report has gone out signed — Sig is a MAC under mac
// and every checkpointEvery-th envelope carries the signed checkpoint over
// those since the last. Without one it is sign-then-seal, byte for byte
// what the paper specifies; that envelope adds nothing to the next
// checkpoint, and needs no stream at all (SealOn passes none).
func (st *Stream) Seal(r *Report, signer *pki.KeyPair, sealer *pki.Sealer, mac *pki.Ticket) (*SealedReport, error) {
	body := r.Marshal()
	sealed, err := sealer.Seal(body)
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
			d = digestOf(body)
			if st.digests == nil {
				st.digests = make([]Digest, 0, 8) // a short-lived stream grows once, not four times
			}
			if st.digests = append(st.digests, d); len(st.digests) == checkpointEvery {
				// A stream that filled one checkpoint will fill the next.
				due, st.digests = st.digests, make([]Digest, 0, checkpointEvery)
			}
		}
		st.mu.Unlock()
	}
	if signed {
		env.Sig = signer.Sign(sealed)
		return env, nil
	}
	tag := mac.Tag(reportMACLabel, d[:])
	env.Sig = tag[:]
	if due != nil {
		env.Checkpoint = &Checkpoint{Digests: due}
		env.Checkpoint.Sig = signer.Sign(env.Checkpoint.signedBytes())
	}
	return env, nil
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
	// cover). Misconduct: it penalised the reporter.
	Kept, Refused, Misconduct bool

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
// macSize bytes is a MAC over the body's digest and must verify under mac
// (nil: the broker derives no key for this reporter, so none can);
// anything else must be reporterPub's signature over the box. A checkpoint
// riding along must carry reporterPub's signature too.
func (o *Opened) Authenticate(reporterPub pki.PublicIdentity, mac *pki.Ticket) error {
	if o.MACd {
		if mac == nil {
			return ErrBadReportSignature
		}
		if tag := mac.Tag(reportMACLabel, o.digest[:]); subtle.ConstantTimeCompare(tag[:], o.env.Sig) != 1 {
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

// ErrMustSign refuses a MAC'd report from a reporter whose checkpoints are
// overdue or left out a report the broker holds: its signed reports are
// accepted as ever, and the first one lifts the refusal.
var ErrMustSign = errors.New("billing: reporter must sign: checkpoint overdue or incomplete")

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

// reporterOf names the stream r belongs to, from the session's binding.
func (v *Verifier) reporterOf(r *Report) reporterID {
	if r.Reporter == ReporterUE {
		return reporterID{ReporterUE, v.sessionUser[r.SessionRef]}
	}
	return reporterID{ReporterTelco, v.sessionTelco[r.SessionRef]}
}

// MustSign reports whether o is a MAC'd envelope from a reporter that is
// refused MAC mode: the caller answers ErrMustSign and ingests nothing.
func (v *Verifier) MustSign(o *Opened) bool {
	a := v.audits[v.reporterOf(o.Report)]
	return o.MACd && a != nil && a.mustSign
}

// IngestOpened is Ingest for an authenticated envelope, followed by the
// reporter's checkpoint audit (DESIGN.md §2.10). A report that Ingest
// rejects — a replay, an unknown session — leaves the audit untouched.
func (v *Verifier) IngestOpened(o *Opened) (*Mismatch, error) {
	mm, err := v.Ingest(o.Report)
	if err != nil {
		return mm, err
	}
	who := v.reporterOf(o.Report)
	a, cp := v.audits[who], o.env.Checkpoint
	if a == nil {
		if !o.MACd && cp == nil {
			return mm, nil
		}
		a = &audit{pending: make([]Digest, 0, 8)}
		v.audits[who] = a
	}
	if !o.MACd {
		a.mustSign = false
	} else if _, listed := a.early[o.digest]; listed {
		delete(a.early, o.digest)
	} else if a.pending = append(a.pending, o.digest); len(a.pending) >= 2*checkpointEvery {
		// Overdue: what is pending is forfeited as evidence.
		a.pending, a.old = a.pending[:0], 0
		o.Misconduct = true
	}
	if cp != nil {
		if a.replayed(cp) {
			o.Refused = true
		} else if a.apply(cp) {
			o.Refused, o.Misconduct = true, true
		} else {
			o.Kept = true
		}
	}
	if o.Misconduct {
		a.mustSign = true
		if who.rep == ReporterTelco {
			v.PenalizeMisconduct(who.id, 1.0)
		} else {
			v.suspects[who.id] = true
		}
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
	// An honest reporter over an ordered, lossless path: the checkpoint
	// lists exactly what is pending, in order.
	if a.old == 0 && slices.Equal(a.pending, cp.Digests) {
		a.pending, a.early = a.pending[:0], nil
		return false
	}
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
