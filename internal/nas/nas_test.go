package nas

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func testMaster(b byte) MasterKey {
	var m MasterKey
	for i := range m {
		m[i] = b
	}
	return m
}

func TestDeriveHierarchyDeterministic(t *testing.T) {
	a := DeriveHierarchy(testMaster(1), 0)
	b := DeriveHierarchy(testMaster(1), 0)
	if a != b {
		t.Fatal("same master derived different hierarchies")
	}
}

func TestDeriveHierarchyDistinctKeys(t *testing.T) {
	h := DeriveHierarchy(testMaster(2), 0)
	keys := [][]byte{h.KNASEnc[:], h.KNASInt[:], h.KENB[:], h.KRRCEnc[:], h.KRRCInt[:], h.KUPEnc[:]}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if bytes.Equal(keys[i], keys[j]) {
				t.Fatalf("derived keys %d and %d are equal", i, j)
			}
		}
	}
}

func TestDeriveHierarchyCountBinding(t *testing.T) {
	a := DeriveHierarchy(testMaster(3), 0)
	b := DeriveHierarchy(testMaster(3), 1)
	if a.KENB == b.KENB {
		t.Fatal("K_eNB not bound to NAS count")
	}
	if a.KNASEnc != b.KNASEnc {
		t.Fatal("NAS keys should not depend on count")
	}
}

// Known answers, computed at the commit before the context kept its key
// schedule (crypto/hmac per derivation, aes.NewCipher per message): every
// derived key and every protected byte is wire state shared with a peer
// that may run the other code.
func TestKnownAnswers(t *testing.T) {
	var master MasterKey
	for i := range master {
		master[i] = byte(i*7 + 3)
	}
	h := DeriveHierarchy(master, 5)
	for _, k := range []struct {
		name string
		got  Key
		want string
	}{
		{"K_NASenc", h.KNASEnc, "7f42b013e733d7fc6c28ec8ba229b17d"},
		{"K_NASint", h.KNASInt, "000bd95e3f4f0704fab83ff2999f17b8"},
		{"K_eNB", h.KENB, "076af98ed58a81a1dd55dbb883d1d6f6"},
		{"K_RRCenc", h.KRRCEnc, "e27ae8cf734ba0d9abb99d5d4dcddcd9"},
		{"K_RRCint", h.KRRCInt, "c7e2d0bb55bdb246dc48041896e17960"},
		{"K_UPenc", h.KUPEnc, "b55cc7a94a26f5e28d0cd852af51f864"},
		{"K_eNB at count 0", DeriveHierarchy(master, 0).KENB, "ab6df518995ed793ba32aabf0cd266a4"},
	} {
		if got := hex.EncodeToString(k.got[:]); got != k.want {
			t.Errorf("%s = %s, want %s", k.name, got, k.want)
		}
	}

	c := NewSecurityContext(master)
	payload := []byte("attach complete: the quick brown fox jumps over the lazy dog")
	c.Protect(Uplink, []byte("x"))
	c.Protect(Uplink, []byte("y"))
	for _, m := range []struct {
		name string
		got  []byte
		want string
	}{
		{"uplink, count 2", c.Protect(Uplink, payload), "00000002001c100e7f527238c7ea3d72d1bdff0d7b60ab0019bd8d748c033cb0b7e77ffaef23103376df8fb2a755578d982a9852ed35d6a5dce1b9cf3b74d112a7b0b82e47"},
		{"downlink, count 0", c.Protect(Downlink, payload), "00000000013c7564186e8e5f4d528fb03d357bd0d3cc56bf714ac1094a7510aa8ca7686dd5bbf2325b95a656b5ed340d4c78fb2a54b3ed6241b34d5a34814f6842eb1f832f"},
		{"downlink, count 1, empty", c.Protect(Downlink, nil), "0000000101f1d7b655"},
	} {
		if got := hex.EncodeToString(m.got); got != m.want {
			t.Errorf("%s:\n got %s\nwant %s", m.name, got, m.want)
		}
	}
}

// A session pays its key set-up once (DESIGN.md §2.4): the context is the
// struct and the AES schedule, a message its output buffer and a CTR
// stream. Before, 56 and 23.
func TestSecurityContextAllocs(t *testing.T) {
	master := testMaster(13)
	if n := testing.AllocsPerRun(100, func() { NewSecurityContext(master) }); n > 6 {
		t.Errorf("NewSecurityContext: %v allocations, want <= 6", n)
	}
	ue, net := NewSecurityContext(master), NewSecurityContext(master)
	payload := bytes.Repeat([]byte{0xA5}, 120)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := net.Unprotect(Uplink, ue.Protect(Uplink, payload)); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("Protect + Unprotect of %d bytes: %v allocations, want <= 8", len(payload), n)
	}
}

func TestProtectUnprotectRoundTrip(t *testing.T) {
	ue := NewSecurityContext(testMaster(4))
	net := NewSecurityContext(testMaster(4))
	msg := []byte("attach complete")
	wire := ue.Protect(Uplink, msg)
	got, err := net.Unprotect(Uplink, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("roundtrip mismatch: %q", got)
	}
	// And downlink.
	wire2 := net.Protect(Downlink, []byte("accept"))
	got2, err := ue.Unprotect(Downlink, wire2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "accept" {
		t.Fatalf("downlink mismatch: %q", got2)
	}
}

func TestProtectCiphersPayload(t *testing.T) {
	c := NewSecurityContext(testMaster(5))
	msg := []byte("this is supposed to be confidential information")
	wire := c.Protect(Uplink, msg)
	if bytes.Contains(wire, msg) {
		t.Fatal("payload appears in cleartext on the wire")
	}
}

func TestUnprotectRejectsTamper(t *testing.T) {
	a := NewSecurityContext(testMaster(6))
	b := NewSecurityContext(testMaster(6))
	wire := a.Protect(Uplink, []byte("hello"))
	wire[len(wire)-1] ^= 1
	if _, err := b.Unprotect(Uplink, wire); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered MAC: err=%v, want ErrIntegrity", err)
	}
	wire2 := a.Protect(Uplink, []byte("hello"))
	wire2[6] ^= 1 // ciphertext byte
	if _, err := b.Unprotect(Uplink, wire2); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered ciphertext: err=%v, want ErrIntegrity", err)
	}
}

func TestUnprotectRejectsReplay(t *testing.T) {
	a := NewSecurityContext(testMaster(7))
	b := NewSecurityContext(testMaster(7))
	w1 := a.Protect(Uplink, []byte("one"))
	w2 := a.Protect(Uplink, []byte("two"))
	if _, err := b.Unprotect(Uplink, w1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Unprotect(Uplink, w1); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: err=%v, want ErrReplay", err)
	}
	if _, err := b.Unprotect(Uplink, w2); err != nil {
		t.Fatalf("in-order message rejected: %v", err)
	}
}

func TestUnprotectWrongKey(t *testing.T) {
	a := NewSecurityContext(testMaster(8))
	b := NewSecurityContext(testMaster(9))
	wire := a.Protect(Uplink, []byte("x"))
	if _, err := b.Unprotect(Uplink, wire); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("wrong key: err=%v, want ErrIntegrity", err)
	}
}

func TestUnprotectDirectionMismatch(t *testing.T) {
	a := NewSecurityContext(testMaster(10))
	b := NewSecurityContext(testMaster(10))
	wire := a.Protect(Uplink, []byte("x"))
	if _, err := b.Unprotect(Downlink, wire); err == nil {
		t.Fatal("direction mismatch accepted")
	}
}

func TestDirectionsIndependentKeystream(t *testing.T) {
	a := NewSecurityContext(testMaster(11))
	msg := bytes.Repeat([]byte{0}, 64)
	up := a.Protect(Uplink, msg)
	down := a.Protect(Downlink, msg)
	// With zero plaintext, the ciphertext *is* the keystream.
	if bytes.Equal(up[5:len(up)-MACSize], down[5:len(down)-MACSize]) {
		t.Fatal("uplink and downlink share keystream")
	}
}

func TestUnprotectShort(t *testing.T) {
	c := NewSecurityContext(testMaster(12))
	if _, err := c.Unprotect(Uplink, []byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: err=%v", err)
	}
}

func allMessages() []Message {
	return []Message{
		&AttachRequestLegacy{IMSI: "001010000000001", Capabilities: 7},
		&AuthenticationRequest{RAND: [16]byte{1, 2, 3}, AUTN: []byte{9, 8, 7}},
		&AuthenticationResponse{RES: []byte{4, 5, 6, 7}},
		&SecurityModeCommand{CipherAlg: 2, IntegrityAlg: 2, ReplayedCaps: 7},
		&SecurityModeComplete{},
		&AttachRequestSAP{BrokerID: "broker.example", AuthReqU: []byte("sealed-blob")},
		&AttachAccept{SessionID: 99, IP: "10.1.2.3", BearerID: 5, QCI: 9, DLAmbrBps: 20e6, ULAmbrBps: 5e6, AuthRespU: []byte("resp")},
		&AttachReject{Cause: "authorization denied"},
		&DetachRequest{SessionID: 99},
		&DetachAccept{SessionID: 99},
		&SessionRequest{SessionID: 99, APN: "internet", QCI: 8},
		&SessionAccept{SessionID: 99, BearerID: 6, QCI: 8},
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		wire := Encode(m)
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%T roundtrip mismatch:\n in: %+v\nout: %+v", m, m, got)
		}
	}
}

func TestMessageTypesUnique(t *testing.T) {
	seen := map[byte]string{}
	for _, m := range allMessages() {
		ty := m.Type()
		name := reflect.TypeOf(m).String()
		if prev, dup := seen[ty]; dup {
			t.Fatalf("type byte %d shared by %s and %s", ty, prev, name)
		}
		seen[ty] = name
	}
}

// Type bytes are wire state shared with deployed peers.
func TestMessageTypeBytesStable(t *testing.T) {
	if got := (&AttachRequestSAP{}).Type(); got != 6 {
		t.Fatalf("AttachRequestSAP type byte moved: %d", got)
	}
	if got := (&SessionAccept{}).Type(); got != 12 {
		t.Fatalf("SessionAccept type byte moved: %d", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty decode accepted")
	}
	// 13 was the retired AttachResume message: unknown like any other.
	for _, ty := range []byte{13, 0xFF} {
		if _, err := Decode([]byte{ty}); !errors.Is(err, ErrUnknownMessage) {
			t.Fatalf("unknown type %d: err=%v", ty, err)
		}
	}
	// Truncated body.
	wire := Encode(&AttachAccept{SessionID: 1, IP: "10.0.0.1"})
	if _, err := Decode(wire[:len(wire)-3]); err == nil {
		t.Fatal("truncated decode accepted")
	}
	// Trailing garbage.
	if _, err := Decode(append(wire, 0xAB)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: protect/unprotect round-trips arbitrary payloads through a
// pair of synchronized contexts.
func TestPropertyProtectRoundTrip(t *testing.T) {
	a := NewSecurityContext(testMaster(20))
	b := NewSecurityContext(testMaster(20))
	f := func(payload []byte, dirBit bool) bool {
		dir := Uplink
		if dirBit {
			dir = Downlink
		}
		var tx, rx *SecurityContext
		if dir == Uplink {
			tx, rx = a, b
		} else {
			tx, rx = b, a
		}
		// Symmetric contexts: our "b" context plays the network, which
		// sends downlink and receives uplink.
		wire := tx.Protect(dir, payload)
		got, err := rx.Unprotect(dir, wire)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: codec round-trips arbitrary SAP attach payloads.
func TestPropertySAPAttachCodec(t *testing.T) {
	f := func(broker string, blob []byte) bool {
		m := &AttachRequestSAP{BrokerID: broker, AuthReqU: blob}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		g := got.(*AttachRequestSAP)
		return g.BrokerID == broker && bytes.Equal(g.AuthReqU, blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
