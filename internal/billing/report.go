// Package billing implements CellBricks' verifiable accounting (§4.3):
// the UE and the bTelco independently measure a session's traffic and
// periodically send signed, encrypted traffic reports to the broker; the
// broker aligns the two report streams and flags discrepancies beyond a
// loss-adjusted threshold (Fig. 5), feeding a reputation system under the
// paper's "dishonest but not malicious" threat model. After a reporter's
// first contact with the broker "signed" becomes "MAC'd, with one signed
// checkpoint per 256 reports" (checkpoint.go, DESIGN.md §2.10).
package billing

import (
	"errors"
	"time"

	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
)

// Reporter identifies which side produced a report.
type Reporter byte

// Reporter values.
const (
	ReporterUE Reporter = iota + 1
	ReporterTelco
)

// QoSMetrics are the per-direction quality measurements a report carries,
// per the 3GPP performance-measurement vocabulary the paper references
// (average bit rates, packet loss, delay — separately for DL and UL).
type QoSMetrics struct {
	DLBitrateBps float64
	ULBitrateBps float64
	DLLossRate   float64
	ULLossRate   float64
	DLDelayMs    float64
	ULDelayMs    float64
}

// Report is one traffic report: "(i) session identifier, (ii) relative
// timestamp within the session, (iii) usage metrics for UL and DL in
// bytes, (iv) duration for calls and events such as SMS, (v) QoS metrics".
type Report struct {
	SessionRef string // the SAP grant's opaque URef
	Reporter   Reporter
	Seq        uint32        // reporting-cycle sequence number
	Rel        time.Duration // relative timestamp within the session
	ULBytes    uint64
	DLBytes    uint64
	CallSecs   float64
	SMSCount   uint32
	QoS        QoSMetrics
}

var errReporter = errors.New("billing: bad reporter")

func (r *Report) fields(c codec.Coder) codec.Coder {
	c.String(&r.SessionRef)
	c.Byte((*byte)(&r.Reporter))
	c.Check(r.Reporter == ReporterUE || r.Reporter == ReporterTelco, errReporter)
	c.Uint32(&r.Seq)
	c.Int64((*int64)(&r.Rel))
	c.Uint64(&r.ULBytes)
	c.Uint64(&r.DLBytes)
	c.Float64(&r.CallSecs)
	c.Uint32(&r.SMSCount)
	c.Float64(&r.QoS.DLBitrateBps)
	c.Float64(&r.QoS.ULBitrateBps)
	c.Float64(&r.QoS.DLLossRate)
	c.Float64(&r.QoS.ULLossRate)
	c.Float64(&r.QoS.DLDelayMs)
	c.Float64(&r.QoS.ULDelayMs)
	return c
}

// Marshal encodes a report body.
func (r *Report) Marshal() []byte { return codec.Encode(r.fields) }

// UnmarshalReport decodes a report body.
func UnmarshalReport(b []byte) (*Report, error) {
	r := &Report{}
	if err := codec.Decode(b, r.fields); err != nil {
		return nil, err
	}
	return r, nil
}

// SealedReport is the tamper-proof envelope: the report body sealed to the
// broker's public key and authenticated in Sig, where the length tells the
// mode (DESIGN.md §2.10). 64 bytes are the reporter's signature over Sealed
// — the UE's baseband key, or the bTelco's certified key — as the paper
// has it; macSize bytes are a MAC over the body's digest under the key the
// reporter's attach already proved to the broker. Every checkpointEvery-th
// MAC'd envelope of a reporter also carries a Checkpoint, which its MAC
// covers too: stripped of it, the envelope no longer authenticates.
type SealedReport struct {
	Sealed     []byte
	Sig        []byte
	Checkpoint *Checkpoint // optional; nil on all but one envelope in checkpointEvery
}

// fields lists the envelope. Without a checkpoint these are the bytes the
// envelope always had; a checkpoint follows them (Checkpoint.fields).
func (s *SealedReport) fields(c codec.Coder) codec.Coder {
	c.Bytes(&s.Sealed)
	c.Bytes(&s.Sig)
	if c.Optional(s.Checkpoint != nil) {
		if s.Checkpoint == nil {
			s.Checkpoint = new(Checkpoint)
		}
		c = s.Checkpoint.fields(c)
	}
	return c
}

// Marshal encodes the envelope.
func (s *SealedReport) Marshal() []byte { return codec.Encode(s.fields) }

// UnmarshalSealedReport decodes the envelope.
func UnmarshalSealedReport(b []byte) (*SealedReport, error) {
	s := &SealedReport{}
	if err := codec.Decode(b, s.fields); err != nil {
		return nil, err
	}
	return s, nil
}

// SealOn signs and encrypts a report for the broker on the exchange the
// reporter already holds with it — the paper's scheme ("sign and encrypt
// the measurement report on the baseband"), and what a Stream falls back
// to whenever it has no MAC key.
func SealOn(r *Report, signer *pki.KeyPair, sealer *pki.Sealer) (*SealedReport, error) {
	var none *Stream
	return none.Seal(r, signer, sealer, nil)
}

// Seal is SealOn over a one-message exchange with brokerPub.
func Seal(r *Report, signer *pki.KeyPair, brokerPub pki.PublicIdentity) (*SealedReport, error) {
	sealer, err := pki.NewSealer(brokerPub)
	if err != nil {
		return nil, err
	}
	return SealOn(r, signer, sealer)
}

// ErrBadReportSignature is returned when an envelope fails verification:
// its signature, its MAC, or the signature of the checkpoint it carries.
var ErrBadReportSignature = errors.New("billing: report signature invalid")

// OpenVerified decrypts an envelope with the broker's key and authenticates
// it as signed by reporterPub. A MAC'd envelope fails here: the caller
// offers no key to check one under.
func OpenVerified(s *SealedReport, brokerKey *pki.KeyPair, reporterPub pki.PublicIdentity) (*Report, error) {
	o, err := Open(s, brokerKey)
	if err != nil {
		return nil, err
	}
	if err := o.Authenticate(reporterPub, nil); err != nil {
		return nil, err
	}
	return o.Report, nil
}
