// Package nas implements the Non-Access-Stratum security machinery that
// CellBricks reuses unmodified from the EPS standard (§4.1): a
// KASME-rooted key hierarchy, the security-mode-control (SMC) context with
// NAS uplink/downlink counters, and integrity-protected + ciphered NAS
// message framing.
//
// In EPS the master key KASME comes out of the AKA procedure; in
// CellBricks the broker-issued shared secret ss plays exactly the same
// role — "the shared secret ss is used as the master key (also known as
// KASME) in the security mode control procedures to derive keys for
// ciphering and integrity protection".
//
// Algorithms are stdlib stand-ins for the 3GPP EEA/EIA suites:
// AES-128-CTR for ciphering (EEA2 is AES-CTR in the standard, too) and
// HMAC-SHA256/4-byte MAC for integrity.
//
// SMC derives what NAS uses and nothing else: NewSecurityContext computes
// K_NASenc and K_NASint, expands the AES key schedule and the HMAC pads
// once, and keeps them for the life of the session (DESIGN.md §2.4); it
// does not keep the keys themselves. K_eNB and the AS keys under it
// (K_RRCenc, K_RRCint, K_UPenc) belong to the radio leg, which this
// repository does not model: deriveHierarchy derives all six, from the same
// master key and with the same bytes, for whoever asks.
package nas

import (
	"encoding/binary"

	"cellbricks/internal/pki"
)

// KeySize is the size of every derived key in bytes.
const KeySize = 16

// MasterKeySize is the size of KASME.
const MasterKeySize = 32

// Key identifies one derived key in the hierarchy.
type Key [KeySize]byte

// MasterKey is KASME (or the SAP shared secret ss).
type MasterKey [MasterKeySize]byte

// Hierarchy holds the keys derived from KASME per the EPS key hierarchy:
// NAS encryption and integrity keys for UE<->core signalling, and K_eNB
// from which the AS (radio) keys derive.
type Hierarchy struct {
	KNASEnc Key
	KNASInt Key
	KENB    Key
	KRRCEnc Key
	KRRCInt Key
	KUPEnc  Key
}

// Derivation inputs of the 3GPP-style KDF, HMAC-SHA256(key, FC || P0 || L0
// ...) simplified to a labelled derivation: the FC byte (arbitrary but
// fixed), the key's name and a zero byte, ahead of the context bytes.
const (
	kdfNASEnc = "\x15KNASenc\x00"
	kdfNASInt = "\x15KNASint\x00"
	kdfENB    = "\x15KeNB\x00"
	kdfRRCEnc = "\x15KRRCenc\x00"
	kdfRRCInt = "\x15KRRCint\x00"
	kdfUPEnc  = "\x15KUPenc\x00"
)

// kdf derives one key under a prepared parent key, on the stack.
func kdf(parent *pki.MAC, label string, ctx []byte) (k Key) {
	sum := parent.Sum(label, ctx, nil)
	copy(k[:], sum[:KeySize])
	return k
}

// deriveHierarchy derives the full key hierarchy from the master key. The
// ulCount parameter binds K_eNB to the NAS uplink count at derivation time
// as the standard does, preventing key-stream reuse across re-attachments
// with the same master key.
func deriveHierarchy(master MasterKey, ulCount uint32) Hierarchy {
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], ulCount)
	kasme := pki.NewMAC(master[:])
	kenb := kasme.Sum(kdfENB, cnt[:], nil) // the AS keys derive under all 32 bytes
	as := pki.NewMAC(kenb[:])
	return Hierarchy{
		KNASEnc: kdf(&kasme, kdfNASEnc, nil),
		KNASInt: kdf(&kasme, kdfNASInt, nil),
		KENB:    Key(kenb[:KeySize]),
		KRRCEnc: kdf(&as, kdfRRCEnc, nil),
		KRRCInt: kdf(&as, kdfRRCInt, nil),
		KUPEnc:  kdf(&as, kdfUPEnc, nil),
	}
}
