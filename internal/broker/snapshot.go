package broker

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"cellbricks/internal/billing"
	"cellbricks/internal/codec"
	"cellbricks/internal/pki"
)

// Snapshot serializes the broker's durable state, only what Restore reads,
// so a restarted brokerd resumes where it stopped: sessions keep settling,
// reputation history survives, and a quarantined bTelco stays quarantined
// through the restart. Version 3 holds, section by section:
//
//	users     each registered user's key (its idU is the key's digest)
//	bTelcos   each idT and the certified key its reports verify under
//	sessions  each URef's grant: idU, idT, QCI and price per GB
//	reps      each bTelco's score, report and mismatch counts, and penalty
//	suspects  the idUs on the suspect list
//	quar      each live quarantine entry: since, until, strikes
//
// No session secret, AMBR or user idU: nothing reads them after the
// attach, or they are derived. Pending unpaired reports, the stored bodies
// and the nonce replay cache are deliberately excluded: reports retransmit,
// and a restart naturally re-arms replay protection. So is everything about
// MAC'd reports: a bTelco's pass comes back with its next grant, and kept
// checkpoints and pending digests are soft state (DESIGN.md §2.10).
const snapshotVersion = 3

var (
	errSnapshotVersion = errors.New("unsupported version")
	errSnapshotCount   = errors.New("a section longer than the snapshot")
)

// snapshot is the durable state in wire order, one list per section.
// Snapshot fills it from the broker's maps and the verifier's State;
// Restore decodes all of it before it touches the broker.
type snapshot struct {
	version byte
	id      string
	users   [][]byte // encoded keys
	telcos  []snapKey
	billing.State
	quar []snapQuar
	size int // reading: the snapshot's length, which bounds each count
}

type snapKey struct {
	id  string
	pub []byte
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
	us := codec.List(&c, &s.users, 1, most, errSnapshotCount)
	for i := range us {
		c.Bytes(&us[i]) // a copy: the parsed keys alias it, and outlive the input
	}
	ts := codec.List(&c, &s.telcos, 1, most, errSnapshotCount)
	for i := range ts {
		c.String(&ts[i].id)
		c.Bytes(&ts[i].pub)
	}
	gs := codec.List(&c, &s.Grants, 1, most, errSnapshotCount)
	for i := range gs {
		g := &gs[i].Grant
		c.String(&gs[i].URef)
		c.String(&g.IDU)
		c.String(&g.IDT)
		c.Byte((*byte)(&g.QCI))
		c.Float64(&g.PricePerGB)
	}
	rs := codec.List(&c, &s.Reputations, 1, most, errSnapshotCount)
	for i := range rs {
		e := &rs[i].Entry
		c.String(&rs[i].IDT)
		c.Float64(&e.Score)
		uint32Int(&c, &e.Reports)
		uint32Int(&c, &e.Mismatches)
		c.Float64(&e.Penalty)
	}
	sus := codec.List(&c, &s.Suspects, 1, most, errSnapshotCount)
	for i := range sus {
		c.String(&sus[i])
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

// Snapshot encodes the broker's durable state. Each section is sorted by its
// key (users by key bytes, the rest by idT, URef or idU), so one broker
// state snapshots to one byte string.
func (b *Brokerd) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := snapshot{version: snapshotVersion, id: b.cfg.ID, State: b.verifier.State()}
	for _, pub := range b.sap.Users() {
		s.users = append(s.users, pub.Bytes())
	}
	for id, k := range b.telcoKeys {
		s.telcos = append(s.telcos, snapKey{id, k.pub.Bytes()})
	}
	for id, e := range b.quar {
		s.quar = append(s.quar, snapQuar{id, *e})
	}
	slices.SortFunc(s.users, bytes.Compare)
	slices.SortFunc(s.telcos, func(a, b snapKey) int { return strings.Compare(a.id, b.id) })
	slices.SortFunc(s.quar, func(a, b snapQuar) int { return strings.Compare(a.id, b.id) })
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
	// Every key is parsed before the broker is touched, so a bad one fails
	// Restore with the broker as it was.
	var err error
	users := make([]pki.PublicIdentity, len(s.users))
	for i, k := range s.users {
		if users[i], err = pki.ParsePublicIdentity(k); err != nil {
			return fmt.Errorf("broker: snapshot user key %d: %w", i, err)
		}
	}
	telcos := make([]pki.PublicIdentity, len(s.telcos))
	for i, t := range s.telcos {
		if telcos[i], err = pki.ParsePublicIdentity(t.pub); err != nil {
			return fmt.Errorf("broker: snapshot key of %q: %w", t.id, err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, pub := range users {
		b.sap.RegisterUser(pub)
	}
	for i, t := range s.telcos {
		b.telcoKeys[t.id] = telcoKey{pub: telcos[i]}
	}
	b.verifier.Restore(s.State)
	if len(s.quar) > 0 && b.quar == nil {
		b.quar = make(map[string]*QuarantineEntry)
	}
	for _, q := range s.quar {
		b.quar[q.id] = &q.e
	}
	return nil
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
