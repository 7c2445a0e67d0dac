package nas

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"cellbricks/internal/pki"
)

// Direction of a protected message, mixed into both the cipher stream and
// the MAC so uplink and downlink never share key-stream.
type Direction byte

const (
	Uplink   Direction = 0
	Downlink Direction = 1
)

// MACSize is the truncated integrity tag size (3GPP NAS uses 32-bit MACs).
const MACSize = 4

// Errors from the security context.
var (
	ErrIntegrity = errors.New("nas: integrity check failed")
	ErrReplay    = errors.New("nas: replayed or stale NAS count")
	ErrTooShort  = errors.New("nas: protected message too short")
)

// SecurityContext is the per-attachment NAS security state established by
// the security-mode-control procedure: the NAS keys, expanded once into the
// forms every message uses, plus independent uplink/downlink counters. One
// side's Uplink counter is the peer's expected receive counter. A context
// serves one message at a time: crypt's counter and keystream blocks live
// in it, so a message costs its output buffer and nothing else.
type SecurityContext struct {
	enc cipher.Block // AES-128 key schedule of K_NASenc
	mac pki.MAC      // HMAC pads of K_NASint

	ulCount uint32 // next count for messages we send uplink
	dlCount uint32 // next count for messages we send downlink

	// Expected receive counters (anti-replay): the lowest acceptable count
	// from the peer in each direction. Wider than a count, so that having
	// accepted 2³²−1 leaves 2³², which no count reaches: the direction is
	// spent, not wrapped back to 0.
	rxUL uint64
	rxDL uint64

	ctr, ks [aes.BlockSize]byte // crypt's counter block and keystream
}

// NewSecurityContext runs the key-derivation half of SMC over the master
// key (KASME / SAP ss): the two NAS keys, each expanded once. The AS keys
// are deriveHierarchy's, for a caller that has a radio leg to key.
func NewSecurityContext(master MasterKey) *SecurityContext {
	kasme := pki.NewMAC(master[:])
	kenc := kdf(&kasme, kdfNASEnc, nil)
	kint := kdf(&kasme, kdfNASInt, nil)
	enc, err := aes.NewCipher(kenc[:])
	if err != nil {
		panic("nas: bad key size: " + err.Error()) // impossible: fixed-size key
	}
	return &SecurityContext{enc: enc, mac: pki.NewMAC(kint[:])}
}

// hdrLen is the clear header of a protected message: count(4) || dir(1).
const hdrLen = 5

// Protect ciphers and integrity-protects a NAS payload for the given
// direction, consuming one counter value. Wire layout:
// count(4) || dir(1) || ciphertext || mac(4).
func (c *SecurityContext) Protect(dir Direction, payload []byte) []byte {
	msg := make([]byte, hdrLen, hdrLen+len(payload)+MACSize)
	return c.seal(dir, append(msg, payload...))
}

// ProtectEnvelope is Protect of m's encoding behind the protected
// envelope's flag byte (no span context): m is encoded and ciphered in
// place, in one buffer of exactly the envelope's size.
func (c *SecurityContext) ProtectEnvelope(dir Direction, m Message) []byte {
	out := make([]byte, 1+hdrLen, 1+hdrLen+EncodedLen(m)+MACSize)
	out[0] = EnvelopeFlagProtected
	msg := c.seal(dir, AppendEncode(out, m)[1:])
	return out[:1+len(msg)]
}

// seal protects msg in place: hdrLen bytes of room for the header, then
// the plaintext. It consumes one count of dir and appends the tag, inside
// msg's capacity when the caller left MACSize bytes of it.
func (c *SecurityContext) seal(dir Direction, msg []byte) []byte {
	var count uint32
	switch dir {
	case Uplink:
		count = c.ulCount
		c.ulCount++
	default:
		count = c.dlCount
		c.dlCount++
	}
	binary.BigEndian.PutUint32(msg, count)
	msg[4] = byte(dir)
	c.crypt(dir, count, msg[hdrLen:], msg[hdrLen:])
	tag := c.mac.Sum("", msg, nil) // header and ciphertext: what the MAC covers
	return append(msg, tag[:MACSize]...)
}

// Unprotect verifies and deciphers a protected NAS message, enforcing
// strictly increasing counts per direction: a direction that has accepted
// count 2³²−1 accepts nothing more.
func (c *SecurityContext) Unprotect(dir Direction, msg []byte) ([]byte, error) {
	if len(msg) < hdrLen+MACSize {
		return nil, ErrTooShort
	}
	count := binary.BigEndian.Uint32(msg)
	gotDir := Direction(msg[4])
	if gotDir != dir {
		return nil, fmt.Errorf("nas: direction mismatch: got %d want %d", gotDir, dir)
	}
	body, tag := msg[:len(msg)-MACSize], msg[len(msg)-MACSize:]
	want := c.mac.Sum("", body, nil)
	if !hmac.Equal(tag, want[:MACSize]) {
		return nil, ErrIntegrity
	}
	expected := &c.rxDL
	if dir == Uplink {
		expected = &c.rxUL
	}
	if uint64(count) < *expected {
		return nil, ErrReplay
	}
	*expected = uint64(count) + 1
	out := make([]byte, len(body)-hdrLen)
	c.crypt(dir, count, out, body[hdrLen:])
	return out, nil
}

// crypt applies AES-128-CTR with an IV derived from (count, direction),
// mirroring the EEA2 construction, from in into out (which may be in): the
// 128-bit counter block count ‖ dir ‖ 0…, incremented big-endian per block
// as cipher.NewCTR does, run on the context's key schedule and scratch.
func (c *SecurityContext) crypt(dir Direction, count uint32, out, in []byte) {
	c.ctr = [aes.BlockSize]byte{}
	binary.BigEndian.PutUint32(c.ctr[:4], count)
	c.ctr[4] = byte(dir)
	for len(in) > 0 {
		c.enc.Encrypt(c.ks[:], c.ctr[:])
		n := subtle.XORBytes(out, in, c.ks[:])
		out, in = out[n:], in[n:]
		for i := aes.BlockSize - 1; i >= 0; i-- {
			if c.ctr[i]++; c.ctr[i] != 0 {
				break
			}
		}
	}
}
