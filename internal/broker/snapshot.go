package broker

import (
	"errors"
	"fmt"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
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

var (
	errSnapshotVersion = errors.New("unsupported version")
	errSnapshotCount   = errors.New("a section longer than the snapshot")
)

// snapshot is the durable state in wire order, one list per section.
// Snapshot fills it from the broker's maps; Restore decodes all of it
// before it touches the broker.
type snapshot struct {
	version  byte
	id       string
	users    []snapKey // the idU, then the encoded key
	telcos   []snapKey
	grants   []sap.GrantRecord
	reps     []snapRep
	suspects []string
	quar     []snapQuar
	size     int // reading: the snapshot's length, which bounds each count
}

type snapKey struct {
	id  string
	pub []byte
}

type snapRep struct {
	id string
	e  billing.ReputationEntry
}

type snapQuar struct {
	id string
	e  QuarantineEntry
}

func (s *snapshot) fields(c codec.Coder) codec.Coder {
	c.Byte(&s.version)
	c.Check(s.version == snapshotVersion, errSnapshotVersion)
	c.String(&s.id)
	most := s.size / 4 // an entry's first field alone takes 4 bytes
	for _, keys := range []*[]snapKey{&s.users, &s.telcos} {
		ks := codec.List(&c, keys, 1, most, errSnapshotCount)
		for i := range ks {
			c.String(&ks[i].id)
			c.Bytes(&ks[i].pub) // a copy: the parsed keys alias it, and outlive the input
		}
	}
	gs := codec.List(&c, &s.grants, 1, most, errSnapshotCount)
	for i := range gs {
		g := &gs[i]
		c.String(&g.URef)
		c.String(&g.IDU)
		c.String(&g.IDT)
		c.Fixed(g.SS[:])
		c.Byte((*byte)(&g.QoS.QCI))
		c.Uint64(&g.QoS.DLAmbrBps)
		c.Uint64(&g.QoS.ULAmbrBps)
		c.Float64(&g.Terms.PricePerGB)
	}
	rs := codec.List(&c, &s.reps, 1, most, errSnapshotCount)
	for i := range rs {
		c.String(&rs[i].id)
		c.Float64(&rs[i].e.Score)
		uint32Int(&c, &rs[i].e.Reports)
		uint32Int(&c, &rs[i].e.Mismatches)
		c.Float64(&rs[i].e.Penalty)
	}
	ss := codec.List(&c, &s.suspects, 1, most, errSnapshotCount)
	for i := range ss {
		c.String(&ss[i])
	}
	qs := codec.List(&c, &s.quar, 1, most, errSnapshotCount)
	for i := range qs {
		c.String(&qs[i].id)
		since, until := uint64(qs[i].e.Since), uint64(qs[i].e.Until)
		c.Uint64(&since)
		c.Uint64(&until)
		qs[i].e.Since, qs[i].e.Until = time.Duration(since), time.Duration(until)
		uint32Int(&c, &qs[i].e.Strikes)
	}
	return c
}

// uint32Int codes an int as the 4-byte field the format carries it in.
func uint32Int(c *codec.Coder, v *int) {
	n := uint32(*v)
	c.Uint32(&n)
	*v = int(n)
}

// Snapshot encodes the broker's durable state.
func (b *Brokerd) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := snapshot{version: snapshotVersion, id: b.cfg.ID, suspects: b.verifier.Suspects()}
	for id, pub := range b.sap.Users() {
		s.users = append(s.users, snapKey{id, pub.Bytes()})
	}
	for id, k := range b.telcoKeys {
		s.telcos = append(s.telcos, snapKey{id, k.pub.Bytes()})
	}
	for _, g := range b.grants {
		s.grants = append(s.grants, *g)
	}
	for id, e := range b.verifier.Reputations() {
		s.reps = append(s.reps, snapRep{id, e})
	}
	for id, e := range b.quar {
		s.quar = append(s.quar, snapQuar{id, *e})
	}
	return codec.Append(make([]byte, 0, 4096), s.fields)
}

// Restore loads a snapshot into a freshly constructed broker (same ID and
// key as the one that produced it).
func (b *Brokerd) Restore(snap []byte) error {
	s := snapshot{size: len(snap)}
	if err := codec.Decode(snap, s.fields); err != nil {
		return fmt.Errorf("broker: snapshot: %w", err)
	}
	if s.id != b.cfg.ID {
		return fmt.Errorf("broker: snapshot for %q, this broker is %q", s.id, b.cfg.ID)
	}
	users, err := parseKeys(s.users)
	if err != nil {
		return err
	}
	for i, u := range s.users { // an idU is its key's digest: RegisterUser derives it
		if id := users[i].Digest(); id != u.id {
			return fmt.Errorf("broker: snapshot user %q holds the key of %q", u.id, id)
		}
	}
	telcos, err := parseKeys(s.telcos)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, pub := range users {
		b.sap.RegisterUser(pub)
	}
	for i, t := range s.telcos {
		b.telcoKeys[t.id] = telcoKey{pub: telcos[i]}
	}
	for _, g := range s.grants {
		b.grants[g.URef] = &g
		b.verifier.BindSession(g.URef, g.IDU, g.IDT)
	}
	for _, r := range s.reps {
		b.verifier.RestoreReputation(r.id, r.e.Score, r.e.Reports, r.e.Mismatches, r.e.Penalty)
	}
	for _, id := range s.suspects {
		b.verifier.RestoreSuspect(id)
	}
	if len(s.quar) > 0 && b.quar == nil {
		b.quar = make(map[string]*QuarantineEntry)
	}
	for _, q := range s.quar {
		b.quar[q.id] = &q.e
	}
	return nil
}

// parseKeys parses a section's keys, so that a bad one fails Restore
// before it touches the broker.
func parseKeys(ks []snapKey) ([]pki.PublicIdentity, error) {
	pubs := make([]pki.PublicIdentity, len(ks))
	for i, k := range ks {
		var err error
		if pubs[i], err = pki.ParsePublicIdentity(k.pub); err != nil {
			return nil, fmt.Errorf("broker: snapshot key of %q: %w", k.id, err)
		}
	}
	return pubs, nil
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
