package nas

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
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
// side's Uplink counter is the peer's expected receive counter.
type SecurityContext struct {
	enc cipher.Block // AES-128 key schedule of K_NASenc
	mac pki.MAC      // HMAC pads of K_NASint

	ulCount uint32 // next count for messages we send uplink
	dlCount uint32 // next count for messages we send downlink

	// Expected receive counters (anti-replay): the lowest acceptable
	// count from the peer in each direction.
	rxUL uint32
	rxDL uint32
}

// NewSecurityContext runs the key-derivation half of SMC over the master
// key (KASME / SAP ss): the two NAS keys, each expanded once. The AS keys
// are DeriveHierarchy's, for a caller that has a radio leg to key.
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
	var count uint32
	switch dir {
	case Uplink:
		count = c.ulCount
		c.ulCount++
	default:
		count = c.dlCount
		c.dlCount++
	}
	out := make([]byte, hdrLen+len(payload)+MACSize)
	binary.BigEndian.PutUint32(out, count)
	out[4] = byte(dir)
	body := out[:hdrLen+len(payload)] // header and ciphertext: what the MAC covers
	c.crypt(dir, count, body[hdrLen:], payload)
	tag := c.mac.Sum("", body, nil)
	copy(out[len(body):], tag[:MACSize])
	return out
}

// Unprotect verifies and deciphers a protected NAS message, enforcing
// monotonically increasing counts per direction.
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
	var expected *uint32
	if dir == Uplink {
		expected = &c.rxUL
	} else {
		expected = &c.rxDL
	}
	if count < *expected {
		return nil, ErrReplay
	}
	*expected = count + 1
	out := make([]byte, len(body)-hdrLen)
	c.crypt(dir, count, out, body[hdrLen:])
	return out, nil
}

// crypt applies AES-128-CTR with an IV derived from (count, direction),
// mirroring the EEA2 construction, from in into out.
func (c *SecurityContext) crypt(dir Direction, count uint32, out, in []byte) {
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint32(iv[:4], count)
	iv[4] = byte(dir)
	cipher.NewCTR(c.enc, iv[:]).XORKeyStream(out, in)
}
