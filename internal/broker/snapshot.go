package broker

import (
	"fmt"
	"time"

	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
)

// Snapshot serializes the broker's durable state — registered users,
// known bTelco keys, grants, agreed prices, reputation entries, and
// (since v2) live quarantine entries — so a restarted brokerd resumes
// exactly where it stopped: sessions keep settling, reputation history
// survives, and a quarantined bTelco stays quarantined through the
// restart. (Pending unpaired reports and the nonce replay cache are
// deliberately excluded: reports retransmit, and a restart naturally
// re-arms replay protection. So is everything about MAC'd reports: a
// bTelco's pass comes back with its next grant, and kept checkpoints and
// pending digests are soft state — DESIGN.md §2.10.)
const snapshotVersion = 2

// Snapshot encodes the broker's durable state.
func (b *Brokerd) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := codec.NewWriter(4096)
	w.Byte(snapshotVersion)
	w.String(b.cfg.ID)

	users := b.sap.Users()
	w.Uint32(uint32(len(users)))
	for id, pub := range users {
		w.String(id)
		w.Bytes(pub.Bytes())
	}
	w.Uint32(uint32(len(b.telcoKeys)))
	for id, k := range b.telcoKeys {
		w.String(id)
		w.Bytes(k.pub.Bytes())
	}
	w.Uint32(uint32(len(b.grants)))
	for uref, g := range b.grants {
		w.String(uref)
		w.String(g.IDU)
		w.String(g.IDT)
		w.Bytes(g.SS[:])
		w.Byte(byte(g.QoS.QCI))
		w.Uint64(g.QoS.DLAmbrBps)
		w.Uint64(g.QoS.ULAmbrBps)
		w.Float64(g.Terms.PricePerGB)
	}
	reps := b.verifier.Reputations()
	w.Uint32(uint32(len(reps)))
	for id, e := range reps {
		w.String(id)
		w.Float64(e.Score)
		w.Uint32(uint32(e.Reports))
		w.Uint32(uint32(e.Mismatches))
		w.Float64(e.Penalty)
	}
	suspects := b.verifier.Suspects()
	w.Uint32(uint32(len(suspects)))
	for _, id := range suspects {
		w.String(id)
	}
	w.Uint32(uint32(len(b.quar)))
	for id, e := range b.quar {
		w.String(id)
		w.Uint64(uint64(e.Since))
		w.Uint64(uint64(e.Until))
		w.Uint32(uint32(e.Strikes))
	}
	return w.Out()
}

// Restore loads a snapshot into a freshly constructed broker (same ID and
// key as the one that produced it). Both the current v2 format and the
// quarantine-less v1 format are accepted.
func (b *Brokerd) Restore(snap []byte) error {
	r := codec.NewReader(snap)
	v := r.Byte()
	if v != 1 && v != snapshotVersion {
		return fmt.Errorf("broker: snapshot version %d unsupported", v)
	}
	id := r.String()
	if id != b.cfg.ID {
		return fmt.Errorf("broker: snapshot for %q, this broker is %q", id, b.cfg.ID)
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	nUsers := r.Uint32()
	for i := uint32(0); i < nUsers && r.Err() == nil; i++ {
		_ = r.String() // the idU: RegisterUser derives the same digest from the key
		// A copy: the parsed keys alias it, and outlive snap.
		pub, err := pki.ParsePublicIdentity(r.BytesCopy())
		if err != nil {
			return err
		}
		b.sap.RegisterUser(pub)
	}
	nTelcos := r.Uint32()
	for i := uint32(0); i < nTelcos && r.Err() == nil; i++ {
		tid := r.String()
		pub, err := pki.ParsePublicIdentity(r.BytesCopy())
		if err != nil {
			return err
		}
		b.telcoKeys[tid] = telcoKey{pub: pub}
	}
	nGrants := r.Uint32()
	for i := uint32(0); i < nGrants && r.Err() == nil; i++ {
		g := &sap.GrantRecord{}
		uref := r.String()
		g.URef = uref
		g.IDU = r.String()
		g.IDT = r.String()
		ss := r.Bytes()
		if r.Err() == nil && len(ss) != len(g.SS) {
			return fmt.Errorf("broker: snapshot grant %q: a %d-byte ss", uref, len(ss))
		}
		copy(g.SS[:], ss)
		g.QoS.QCI = qos.QCI(r.Byte())
		g.QoS.DLAmbrBps = r.Uint64()
		g.QoS.ULAmbrBps = r.Uint64()
		g.Terms.PricePerGB = r.Float64()
		b.grants[uref] = g
		b.verifier.BindSession(uref, g.IDU, g.IDT)
	}
	nReps := r.Uint32()
	for i := uint32(0); i < nReps && r.Err() == nil; i++ {
		tid := r.String()
		score := r.Float64()
		reports := int(r.Uint32())
		mismatches := int(r.Uint32())
		penalty := r.Float64()
		b.verifier.RestoreReputation(tid, score, reports, mismatches, penalty)
	}
	nSusp := r.Uint32()
	for i := uint32(0); i < nSusp && r.Err() == nil; i++ {
		b.verifier.RestoreSuspect(r.String())
	}
	if v >= 2 {
		nQuar := r.Uint32()
		if nQuar > 0 && b.quar == nil {
			b.quar = make(map[string]*QuarantineEntry)
		}
		for i := uint32(0); i < nQuar && r.Err() == nil; i++ {
			id := r.String()
			e := &QuarantineEntry{
				Since:   time.Duration(r.Uint64()),
				Until:   time.Duration(r.Uint64()),
				Strikes: int(r.Uint32()),
			}
			b.quar[id] = e
		}
	}
	return r.Done()
}

// Restart is the crash-recovery constructor: it builds a fresh broker from
// cfg, loads the last snapshot, and — if shedFor > 0 — starts in degraded
// mode so attach load is refused with a retry-after hint while the operator
// warms the instance (call Resume, or schedule it, to end the window).
// A nil snapshot restarts with empty durable state, which is still a valid
// (if amnesiac) recovery.
func Restart(cfg Config, snap []byte, shedFor time.Duration) (*Brokerd, error) {
	b := New(cfg)
	if len(snap) > 0 {
		if err := b.Restore(snap); err != nil {
			return nil, fmt.Errorf("broker: restart restore: %w", err)
		}
	}
	if shedFor > 0 {
		b.ShedLoad(shedFor)
	}
	return b, nil
}
