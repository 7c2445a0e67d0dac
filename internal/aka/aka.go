// Package aka implements the legacy EPS-AKA mutual authentication that the
// baseline (MNO) architecture uses and that CellBricks replaces with SAP.
// It is the shared-secret SIM scheme: the home operator and the SIM both
// hold a permanent key K; the network issues a challenge (RAND, AUTN) and
// the UE answers with RES, after which both sides hold KASME.
//
// The f1..f5 functions of MILENAGE are modelled with HMAC-SHA256 under
// distinct domain labels, preserving the structure (MAC-A network
// authentication, XRES, CK/IK folded into KASME, SQN anonymity key) while
// staying in the stdlib.
package aka

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"

	"cellbricks/internal/nas"
)

// Sizes of protocol fields.
const (
	KSize    = 32 // permanent key
	RANDSize = 16
	RESSize  = 8
	MACSize  = 8
	AUTNSize = 6 + MACSize // SQN^AK (6) || MAC-A (8)
)

// Errors returned by the UE-side verification.
var (
	ErrMACFailure  = errors.New("aka: network authentication failed (MAC-A mismatch)")
	ErrSyncFailure = errors.New("aka: SQN out of range (synchronisation failure)")
	ErrBadAUTN     = errors.New("aka: malformed AUTN")
)

// K is the permanent subscriber key provisioned in the SIM and the
// operator's subscriber database.
type K [KSize]byte

// NewK draws a random permanent key.
func NewK() (K, error) {
	var k K
	_, err := io.ReadFull(rand.Reader, k[:])
	return k, err
}

// Vector is the authentication vector the subscriber database returns to
// the MME in response to an Authentication Information Request.
type Vector struct {
	RAND  [RANDSize]byte
	AUTN  []byte
	XRES  []byte
	KASME nas.MasterKey
}

func f(k K, label byte, rnd []byte, extra []byte) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte{label})
	mac.Write(rnd)
	mac.Write(extra)
	return mac.Sum(nil)
}

func sqnBytes(sqn uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], sqn)
	return b[2:] // 48-bit SQN
}

// GenerateVector produces an authentication vector for the given SQN. The
// caller (subscriber DB) must increment its stored SQN per vector.
func GenerateVector(k K, sqn uint64) (Vector, error) {
	var v Vector
	if _, err := io.ReadFull(rand.Reader, v.RAND[:]); err != nil {
		return v, err
	}
	return generateVector(k, sqn, v.RAND), nil
}

// generateVector is the deterministic core: GenerateVector with a
// caller-chosen RAND (the package's tests call it directly).
func generateVector(k K, sqn uint64, rnd [RANDSize]byte) Vector {
	sq := sqnBytes(sqn)
	macA := f(k, 1, rnd[:], sq)[:MACSize]
	xres := f(k, 2, rnd[:], nil)[:RESSize]
	ak := f(k, 5, rnd[:], nil)[:6]
	concealed := make([]byte, 6)
	for i := range concealed {
		concealed[i] = sq[i] ^ ak[i]
	}
	var kasme nas.MasterKey
	copy(kasme[:], f(k, 3, rnd[:], sq)) // CK||IK -> KASME collapse
	autn := append(concealed, macA...)
	return Vector{RAND: rnd, AUTN: autn, XRES: xres, KASME: kasme}
}

// SIM is the UE-side AKA state: the permanent key and the highest SQN
// accepted so far (replay window).
type SIM struct {
	K    K
	SQN  uint64 // highest accepted SQN
	IMSI string
}

// Answer verifies the network challenge and, on success, returns RES and
// KASME, advancing the SIM's SQN. A MAC failure means the challenge was
// not produced by the home operator; a sync failure means the SQN is stale
// (replay) or implausibly far ahead.
func (s *SIM) Answer(rnd [RANDSize]byte, autn []byte) (res []byte, kasme nas.MasterKey, err error) {
	if len(autn) != AUTNSize {
		return nil, kasme, ErrBadAUTN
	}
	ak := f(s.K, 5, rnd[:], nil)[:6]
	sq := make([]byte, 6)
	for i := range sq {
		sq[i] = autn[i] ^ ak[i]
	}
	var sqn uint64
	for _, b := range sq {
		sqn = sqn<<8 | uint64(b)
	}
	macA := f(s.K, 1, rnd[:], sq)[:MACSize]
	if !hmac.Equal(macA, autn[6:]) {
		return nil, kasme, ErrMACFailure
	}
	// Accept strictly-increasing SQNs within a generous window.
	const window = 1 << 20
	if sqn <= s.SQN || sqn > s.SQN+window {
		return nil, kasme, ErrSyncFailure
	}
	s.SQN = sqn
	res = f(s.K, 2, rnd[:], nil)[:RESSize]
	copy(kasme[:], f(s.K, 3, rnd[:], sq))
	return res, kasme, nil
}
