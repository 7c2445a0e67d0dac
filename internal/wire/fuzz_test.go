package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame covers the frame decoder, the first code a socket peer's
// bytes meet: no panic; a length prefix of zero or above MaxFrame is an
// error; an accepted frame re-encodes through WriteFrameCtx to exactly the
// bytes it was read from, span context included. The corpus under
// testdata/fuzz/FuzzReadFrame holds an untraced frame, a traced frame, a
// zero-length prefix, a prefix above MaxFrame and a truncated body, plus
// the first find: a traced frame whose context has no trace, which the
// decoder took although WriteFrameCtx never writes it.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		msgType, sc, payload, err := ReadFrameCtx(r)
		if len(b) >= 4 {
			if n := binary.BigEndian.Uint32(b); (n == 0 || n > MaxFrame) && err == nil {
				t.Fatalf("length prefix %d accepted", n)
			}
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrameCtx(&out, msgType, sc, payload); err != nil {
			t.Fatalf("type %d, %d-byte payload does not re-encode: %v", msgType, len(payload), err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("frame %x re-encodes to %x", read, out.Bytes())
		}
	})
}
