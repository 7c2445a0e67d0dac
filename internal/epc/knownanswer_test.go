package epc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cellbricks/internal/aka"
	"cellbricks/internal/qos"
)

// Known answers, recorded before the messages declared their fields once
// (DESIGN.md §2.4): the S6A-like AIA and ULA payloads and the UE→AGW NAS
// call.
func TestKnownAnswers(t *testing.T) {
	v := aka.Vector{AUTN: bytes.Repeat([]byte{2}, 16), XRES: bytes.Repeat([]byte{3}, 8)}
	for i := range v.RAND {
		v.RAND[i] = byte(i)
	}
	for i := range v.KASME {
		v.KASME[i] = byte(i + 100)
	}
	p := SubscriberProfile{IMSI: "001010000000001", APN: "internet", QoS: qos.Params{QCI: 9, DLAmbrBps: 100e6, ULAmbrBps: 50e6}}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"AIA vector", MarshalVector(v), "96d972da9be5f76ce34f63e2004a6319751ddb8d378c89fe1e8fb8d3b3889fab"},
		{"ULA profile", MarshalProfile(p), "3e0419f2e835c86547edcef5785b112f5293a60f2d429b83d79c18fd5137d136"},
		{"NAS call", EncodeNASCall("ran-7", []byte{0, 6, 1, 2, 3}), "8abe30ea3181cee0952ddb864c0a3b2fbf42fae689815938a844b551b607486b"},
		{"NAS call, empty", EncodeNASCall("", nil), "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	} {
		sum := sha256.Sum256(c.got)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
