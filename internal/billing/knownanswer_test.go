package billing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// Known answers, recorded before the messages declared their fields once
// (DESIGN.md §2.4): a report body, its envelope with and without a
// checkpoint, and the bytes a checkpoint signs.
func TestKnownAnswers(t *testing.T) {
	r := &Report{
		SessionRef: "0123456789abcdef01234567", Reporter: ReporterTelco, Seq: 7, Rel: 90 * time.Second,
		ULBytes: 1_000_000, DLBytes: 5_000_000, CallSecs: 12.5, SMSCount: 3,
		QoS: QoSMetrics{DLBitrateBps: 20e6, ULBitrateBps: 5e6, DLLossRate: 0.01, ULLossRate: 0.02, DLDelayMs: 30, ULDelayMs: 40},
	}
	cp := &Checkpoint{Digests: []Digest{digestOf([]byte("one")), digestOf([]byte("two"))}, Sig: bytes.Repeat([]byte{2}, 64)}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"report", r.Marshal(), "a07caca692287ddac82fd9f5e45826be381eb8e28f0ff307e87b3eba878b8b29"},
		{"report, UE, zero", (&Report{Reporter: ReporterUE}).Marshal(), "5fa858257cb8ec730d27ff0f3103a828bc75603d1f7e98d2c1191388e98b7446"},
		{"sealed report", (&SealedReport{Sealed: []byte("sealed body"), Sig: bytes.Repeat([]byte{1}, 64)}).Marshal(), "ce371c73bed2b234d3da21c6a270ce75ae9c191c23983f26f4a2d5ae608d26be"},
		{"sealed report, checkpoint", (&SealedReport{Sealed: []byte("sealed body"), Sig: bytes.Repeat([]byte{1}, macSize), Checkpoint: cp}).Marshal(), "17deccfbc0a88bd942530eb00bcee191739ed0f03a247eff6c9afed2882fe95b"},
		{"checkpoint signed bytes", cp.signedBytes(), "64547598744aa7c668e772254927d7196e4770f396dbd34681918ec8842d03c7"},
	} {
		sum := sha256.Sum256(c.got)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
