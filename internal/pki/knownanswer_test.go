package pki

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// Known answers, recorded before the messages declared their fields once
// (DESIGN.md §2.4): a flattened identity, the bytes a CA signs for a
// certificate, its signature over them, and the certificate digest passes
// and the verifier's cache are keyed by.
func TestKnownAnswers(t *testing.T) {
	ca, err := NewCAFromSeed("ca", bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyPairFromSeed(bytes.Repeat([]byte{2}, 32))
	if err != nil {
		t.Fatal(err)
	}
	cert := ca.Issue("t1", "btelco", k.Public(), time.Unix(1_700_000_000, 0), time.Unix(1_800_000_000, 0))
	digest := cert.Digest()
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"identity", k.Public().Bytes(), "adbe4b58e9be932199c2ba48aa220ed555aacd48a4bf4a6276bbacba8f73d6ec"},
		{"certificate signed bytes", cert.signedBytes(), "68697583be3a580229702c45317c39c0d484e8c11e2967abf07af5fb5348f51b"},
		{"certificate signature", cert.Signature, "217afacaa800db3d0daf766cda1922832f4197f0ede6fde62d4e3b270bf7a19d"},
		{"certificate digest", digest[:], "9036c0ce51b238a54ad8669a63b7a09d27e3e8dd60804c274d9f343ede7d7268"},
	} {
		sum := sha256.Sum256(c.got)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
