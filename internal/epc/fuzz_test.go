package epc

import (
	"bytes"
	"testing"

	"cellbricks/internal/codec"
	"cellbricks/internal/wire"
)

// FuzzNASCall feeds any TCP peer's bytes to the AGW's socket ingress,
// NASServer.handle, on a fresh AGW each time. Whatever comes in: no panic; a
// call that decodes re-encodes through EncodeNASCall to exactly its bytes;
// and the handler answers with a reply or an error, never both or neither.
// The corpus under testdata/fuzz/FuzzNASCall holds a UE's first SAP and
// legacy attach requests, a protected message from a RAN identifier with no
// session, an empty envelope, a truncated call and one with a trailing byte.
func FuzzNASCall(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var call nasCall
		if codec.Decode(b, call.fields) == nil {
			if out := EncodeNASCall(call.ranID, call.envelope); !bytes.Equal(out, b) {
				t.Fatalf("call %x re-encodes to %x", b, out)
			}
		}
		s := &NASServer{G: buildWorld(t).agw}
		if _, reply, err := s.handle(wire.TypeNAS, b); (reply == nil) == (err == nil) {
			t.Fatalf("reply %x alongside error %v", reply, err)
		}
	})
}
