package pki

import "crypto/sha256"

// MAC is HMAC-SHA256 under one key with both pads computed once, so a key
// that lives as long as a session pays its set-up once (DESIGN.md §2.4) and
// a message under it costs two SHA-256 passes and no heap object — where
// hmac.New costs five. It is the one implementation behind the ticket-path
// derivations here (mac32) and the NAS key hierarchy and integrity tag
// (internal/nas). A MAC holds key material; the zero value is not a key.
type MAC struct {
	ipad, opad [sha256.BlockSize]byte
}

// macStackBuf is what Sum assembles its input in without leaving the
// stack: the inner pad, then a label and a digest or two (the ticket path),
// a key name and a count (the NAS hierarchy) or a protected NAS message of
// up to ~120 bytes — this repository's, detach and session management, are
// under 20.
const macStackBuf = 192

// NewMAC prepares key, of any length: one past the block size is hashed
// first, as RFC 2104 has it.
func NewMAC(key []byte) (m MAC) {
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(m.ipad[:], key)
	for i := range m.ipad {
		m.opad[i] = m.ipad[i] ^ 0x5c
		m.ipad[i] ^= 0x36
	}
	return m
}

// Sum is HMAC-SHA256(key, label ‖ a ‖ b). An input past the stack buffer
// costs one heap buffer of exactly its size and stays correct.
func (m *MAC) Sum(label string, a, b []byte) [sha256.Size]byte {
	buf := make([]byte, 0, macStackBuf)
	if n := len(m.ipad) + len(label) + len(a) + len(b); n > macStackBuf {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, m.ipad[:]...)
	buf = append(buf, label...)
	buf = append(buf, a...)
	buf = append(buf, b...)
	inner := sha256.Sum256(buf)
	buf = append(buf[:0], m.opad[:]...)
	buf = append(buf, inner[:]...)
	return sha256.Sum256(buf)
}

// mac32 is the one-shot form for the short derivations on the ticketed
// path, whose keys are used once or twice. A ticketed attach runs six of
// them; at hmac.New's five heap objects apiece they would allocate as much
// as dropping two signatures and the key agreement saves.
func mac32(key *boxKeyBytes, label string, a []byte, b string) boxKeyBytes {
	m := NewMAC(key[:])
	return m.Sum(label, a, []byte(b))
}
