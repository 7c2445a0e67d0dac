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
	"fmt"
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

// Marshal encodes a report body.
func (r *Report) Marshal() []byte {
	w := codec.NewWriter(128)
	w.String(r.SessionRef)
	w.Byte(byte(r.Reporter))
	w.Uint32(r.Seq)
	w.Uint64(uint64(r.Rel))
	w.Uint64(r.ULBytes)
	w.Uint64(r.DLBytes)
	w.Float64(r.CallSecs)
	w.Uint32(r.SMSCount)
	w.Float64(r.QoS.DLBitrateBps)
	w.Float64(r.QoS.ULBitrateBps)
	w.Float64(r.QoS.DLLossRate)
	w.Float64(r.QoS.ULLossRate)
	w.Float64(r.QoS.DLDelayMs)
	w.Float64(r.QoS.ULDelayMs)
	return w.Out()
}

// UnmarshalReport decodes a report body.
func UnmarshalReport(b []byte) (*Report, error) {
	rd := codec.NewReader(b)
	r := &Report{}
	r.SessionRef = rd.String()
	r.Reporter = Reporter(rd.Byte())
	r.Seq = rd.Uint32()
	r.Rel = time.Duration(rd.Uint64())
	r.ULBytes = rd.Uint64()
	r.DLBytes = rd.Uint64()
	r.CallSecs = rd.Float64()
	r.SMSCount = rd.Uint32()
	r.QoS.DLBitrateBps = rd.Float64()
	r.QoS.ULBitrateBps = rd.Float64()
	r.QoS.DLLossRate = rd.Float64()
	r.QoS.ULLossRate = rd.Float64()
	r.QoS.DLDelayMs = rd.Float64()
	r.QoS.ULDelayMs = rd.Float64()
	if err := rd.Done(); err != nil {
		return nil, err
	}
	if r.Reporter != ReporterUE && r.Reporter != ReporterTelco {
		return nil, fmt.Errorf("billing: bad reporter %d", r.Reporter)
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

// Marshal encodes the envelope. Without a checkpoint these are the bytes
// the envelope always had; a checkpoint follows them as two more fields,
// the digests end to end and the signature over them.
func (s *SealedReport) Marshal() []byte {
	cp, hint := s.Checkpoint, 256
	if cp != nil {
		hint += 128 + digestSize*len(cp.Digests)
	}
	w := codec.NewWriter(hint)
	w.Bytes(s.Sealed)
	w.Bytes(s.Sig)
	if cp == nil {
		return w.Out()
	}
	w.Uint32(uint32(digestSize * len(cp.Digests)))
	tail := codec.AppendTo(appendDigests(w.Out(), cp.Digests))
	tail.Bytes(cp.Sig)
	return tail.Out()
}

// UnmarshalSealedReport decodes the envelope. A checkpoint's digest field
// is read in place and its count checked against checkpointEvery before
// anything is allocated from it.
func UnmarshalSealedReport(b []byte) (*SealedReport, error) {
	rd := codec.NewReader(b)
	s := &SealedReport{}
	s.Sealed = rd.BytesCopy()
	s.Sig = rd.BytesCopy()
	if rd.Err() == nil && rd.Len() > 0 {
		raw := rd.Bytes()
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		n := len(raw) / digestSize
		if n < 1 || n > checkpointEvery || len(raw)%digestSize != 0 {
			return nil, fmt.Errorf("billing: a checkpoint of %d digest bytes", len(raw))
		}
		cp := &Checkpoint{Digests: make([]Digest, n)}
		for i := range cp.Digests {
			copy(cp.Digests[i][:], raw[i*digestSize:])
		}
		cp.Sig = rd.BytesCopy()
		s.Checkpoint = cp
	}
	if err := rd.Done(); err != nil {
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
