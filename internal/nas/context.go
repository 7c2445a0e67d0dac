package nas

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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
// the security-mode-control procedure: the derived hierarchy plus
// independent uplink/downlink counters. One side's Uplink counter is the
// peer's expected receive counter.
type SecurityContext struct {
	Keys    Hierarchy
	ulCount uint32 // next count for messages we send uplink
	dlCount uint32 // next count for messages we send downlink

	// Expected receive counters (anti-replay): the lowest acceptable
	// count from the peer in each direction.
	rxUL uint32
	rxDL uint32
}

// NewSecurityContext runs the key-derivation half of SMC over the master
// key (KASME / SAP ss).
func NewSecurityContext(master MasterKey) *SecurityContext {
	return &SecurityContext{Keys: DeriveHierarchy(master, 0)}
}

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
	ct := c.crypt(dir, count, payload)
	out := make([]byte, 0, 5+len(ct)+MACSize)
	out = binary.BigEndian.AppendUint32(out, count)
	out = append(out, byte(dir))
	out = append(out, ct...)
	return append(out, c.mac(dir, count, ct)...)
}

// Unprotect verifies and deciphers a protected NAS message, enforcing
// monotonically increasing counts per direction.
func (c *SecurityContext) Unprotect(dir Direction, msg []byte) ([]byte, error) {
	if len(msg) < 5+MACSize {
		return nil, ErrTooShort
	}
	count := binary.BigEndian.Uint32(msg)
	gotDir := Direction(msg[4])
	if gotDir != dir {
		return nil, fmt.Errorf("nas: direction mismatch: got %d want %d", gotDir, dir)
	}
	ct := msg[5 : len(msg)-MACSize]
	tag := msg[len(msg)-MACSize:]
	if !hmac.Equal(tag, c.mac(dir, count, ct)) {
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
	return c.crypt(dir, count, ct), nil
}

// crypt applies AES-128-CTR with an IV derived from (count, direction),
// mirroring the EEA2 construction.
func (c *SecurityContext) crypt(dir Direction, count uint32, in []byte) []byte {
	block, err := aes.NewCipher(c.Keys.KNASEnc[:])
	if err != nil {
		panic("nas: bad key size: " + err.Error()) // impossible: fixed-size key
	}
	var iv [16]byte
	binary.BigEndian.PutUint32(iv[:4], count)
	iv[4] = byte(dir)
	out := make([]byte, len(in))
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, in)
	return out
}

func (c *SecurityContext) mac(dir Direction, count uint32, ct []byte) []byte {
	mac := hmac.New(sha256.New, c.Keys.KNASInt[:])
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], count)
	hdr[4] = byte(dir)
	mac.Write(hdr[:])
	mac.Write(ct)
	return mac.Sum(nil)[:MACSize]
}
