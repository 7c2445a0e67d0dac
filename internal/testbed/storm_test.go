package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/pki"
)

// stormTestConfig is small enough for CI yet busy enough to exercise
// every path: the spike overruns the admission rate (sheds, retries,
// retransmissions), arrivals find their UE mid-attach (absorbed), sessions
// live across report cycles (billing), and arrivals re-attach on the
// tickets their grants carried.
func stormTestConfig(shards int) StormConfig {
	return StormConfig{
		Seed:          7,
		Duration:      6 * time.Second,
		Groups:        2,
		CellsPerGroup: 2,
		UEsPerGroup:   3,
		BaseRate:      20,
		Spike:         6,
		SpikeAt:       3 * time.Second,
		SpikeDur:      time.Second,
		Window:        5 * time.Millisecond,
		ReportEvery:   time.Second,
		Admission: broker.AdmissionConfig{
			Rate: 30, Burst: 10, MaxQueue: 32, RetryAfter: 500 * time.Millisecond,
		},
		Shards: shards,
	}
}

func stormHash(t *testing.T, cfg StormConfig) (string, StormResult) {
	t.Helper()
	res, err := RunStorm(cfg)
	if err != nil {
		t.Fatalf("storm shards=%d: %v", cfg.Shards, err)
	}
	sum := sha256.Sum256([]byte(res.Render()))
	return hex.EncodeToString(sum[:]), res
}

// The storm's contract: the rendered result is byte-identical across
// shard counts. (Until PR 25 also across two execution modes, the second
// without the HMAC resume; there is one attach protocol now.)
func TestStormByteIdenticalAcrossShardsAndModes(t *testing.T) {
	ref, base := stormHash(t, stormTestConfig(1))
	for _, shards := range []int{2, 4} {
		h, res := stormHash(t, stormTestConfig(shards))
		if h != ref {
			t.Errorf("%d shards: render hash %s != reference %s\nreference:\n%s\ngot:\n%s",
				shards, h, ref, base.Render(), res.Render())
		}
	}
}

// signedOncePerUE is the storm's first-contact count: one attach at a time
// per UE, and a shed resent where it was shed, so every honest storm UE
// builds exactly one signed request — its first — and rides tickets after.
func signedOncePerUE(t *testing.T, res StormResult) {
	t.Helper()
	if res.Attempters == 0 || res.Signed != res.Attempters {
		t.Errorf("seed=%d shards=%d: %d signed requests for %d UEs that attempted",
			res.Config.Seed, res.Config.Shards, res.Signed, res.Attempters)
	}
}

// Sanity: the workload actually exercises the machinery it claims to.
func TestStormExercisesStormPath(t *testing.T) {
	_, res := stormHash(t, stormTestConfig(2))
	if res.Arrivals == 0 || res.Attaches == 0 {
		t.Fatalf("inert storm: arrivals=%d attaches=%d", res.Arrivals, res.Attaches)
	}
	if res.Sheds == 0 || res.Retries == 0 || res.Absorbed == 0 {
		t.Errorf("spike never overran admission: sheds=%d retries=%d absorbed=%d", res.Sheds, res.Retries, res.Absorbed)
	}
	if res.SpikeArrivals == 0 {
		t.Errorf("no arrivals classified into the spike window")
	}
	signedOncePerUE(t, res)
	if res.Denied != 0 {
		t.Errorf("honest storm saw %d denials", res.Denied)
	}
	if res.Mismatches != 0 {
		t.Errorf("honest billing produced %d mismatches", res.Mismatches)
	}
	if res.Sessions == 0 || res.PaidUnits <= 0 {
		t.Errorf("billing inert: sessions=%d paid=%f", res.Sessions, res.PaidUnits)
	}
}

// What the storm's availability rests on is admission control, not how
// fast the broker decides: honest traffic is never denied or misbilled,
// every refusal is the shedder's, the token bucket holds the line through
// the flash crowd, and a UE gives up at most once per arrival.
func TestStormAdmissionHoldsTheLine(t *testing.T) {
	_, res := stormHash(t, stormTestConfig(1))
	adm := res.Config.Admission
	if res.Denied != 0 || res.Mismatches != 0 {
		t.Errorf("honest storm saw %d denials, %d billing mismatches", res.Denied, res.Mismatches)
	}
	if res.Sheds == 0 || res.RateSheds+res.QueueSheds != uint64(res.Sheds) {
		t.Errorf("sheds=%d, shedder says rate=%d queue=%d", res.Sheds, res.RateSheds, res.QueueSheds)
	}
	// Grants flushed inside the spike were admitted over a stretch no
	// longer than it, and a bucket passes at most rate*t + burst in t.
	if line := adm.Rate*res.Config.SpikeDur.Seconds() + adm.Burst; float64(res.SpikeGrants) > line {
		t.Errorf("%d grants inside the spike, the bucket allows %.0f", res.SpikeGrants, line)
	}
	if res.SpikeSheds == 0 {
		t.Errorf("the spike never reached the shedder")
	}
	if res.GiveUps > res.Arrivals {
		t.Errorf("%d give-ups for %d arrivals", res.GiveUps, res.Arrivals)
	}
}

// A giving-up UE must come back on its next arrival, and the retry
// totals must account exactly for every attempt beyond the first.
func TestStormAttemptAccounting(t *testing.T) {
	_, res := stormHash(t, stormTestConfig(1))
	// Every attempt is the first try of an unabsorbed arrival or a
	// scheduled retry (a retry scheduled past the horizon never runs, so
	// the sum is an upper bound).
	if started := res.Arrivals - res.Absorbed; res.Attempts < started || res.Attempts > started+res.Retries {
		t.Errorf("attempts=%d outside [arrivals-absorbed=%d, arrivals-absorbed+retries=%d]",
			res.Attempts, started, started+res.Retries)
	}
	// No attempt is superseded, so every grant is adopted — bar one whose
	// reply the horizon cut off.
	if res.Attaches > res.Grants || res.Grants-res.Attaches > 1 {
		t.Errorf("adopted %d of %d grants", res.Attaches, res.Grants)
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Errorf("availability out of range: %f", res.Availability)
	}
}

// Nothing seals to a UE's long-term key, so no storm UE derives the X25519
// half of its KeyPair: not at provisioning, not over any number of first
// contacts, tickets and billing reports. The broker's, which every first
// contact opens under, is the control that the probe sees a derived key.
func TestStormUEsNeverDeriveABoxKey(t *testing.T) {
	// boxDerived reads the KeyPair's unexported box key by reflection, so
	// pki exports nothing for a test.
	boxDerived := func(k *pki.KeyPair) bool { return reflect.ValueOf(k).Elem().FieldByName("boxPub").Len() != 0 }
	cfg := stormTestConfig(1).Defaults()
	w, err := newStormWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.world.RunUntil(cfg.Duration)
	if w.runErr != nil {
		t.Fatal(w.runErr)
	}
	if !boxDerived(w.Config.Key) {
		t.Fatal("the broker's box key reads as underived: the probe is blind")
	}
	ues, attaches := 0, 0
	for _, grp := range w.groups {
		for _, u := range grp.ues {
			ues, attaches = ues+1, attaches+u.attaches
			if boxDerived(u.st.Key) {
				t.Errorf("UE %d derived its box key", u.global)
			}
		}
	}
	if attaches < ues {
		t.Fatalf("%d attaches over %d UEs: the storm never reached every UE's first contact", attaches, ues)
	}
}

// BenchmarkStorm is one run of the repository benchmark's storm_emu shape
// (4 groups × 2 cells × 60 UEs, base rate 60/s, 6 s) per iteration, seeds
// 1, 2, …. signed/ue is signed requests per UE that attempted (1 when every
// UE pays first contact once); attempts/grant is what a grant costs in
// attempts.
func BenchmarkStorm(b *testing.B) {
	var signed, attempters, attempts, grants int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunStorm(StormConfig{
			Seed: int64(1 + i), Duration: 6 * time.Second,
			Groups: 4, CellsPerGroup: 2, UEsPerGroup: 60, BaseRate: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		signed, attempters = signed+res.Signed, attempters+res.Attempters
		attempts, grants = attempts+res.Attempts, grants+res.Grants
	}
	b.ReportMetric(float64(signed)/float64(attempters), "signed/ue")
	b.ReportMetric(float64(attempts)/float64(grants), "attempts/grant")
}

// The storm's pinned renders for seeds {1, 3, 5}, which every K must
// produce; which request an attempt sends never moves them. Retransmits
// itself is unrendered bookkeeping: each one follows the shed
// that shelved its request, every grant or denial consumed a request built
// for it alone, the obs counter agrees, and each UE signs exactly once.
func TestStormRetransmitsShedRequestsAtParentHashes(t *testing.T) {
	pinned := map[int64]string{
		1: "c4dca2ac3287e587490010fca46d6ed4ebb2535bc22cd6d895a41fcdbb7ee99d",
		3: "6b9053e5a2357af0d92185661fb2a702e2b2904db4f7119fc2aff2ab070c9052",
		5: "4d04c5a7669c2763aa9e509d588494a7e96d27f3ec16445357907cf29415908b",
	}
	for seed, want := range pinned {
		for _, shards := range []int{1, 4} {
			cfg := stormTestConfig(shards)
			cfg.Seed = seed
			before := counter("ue_attach_retransmits_total")
			h, res := stormHash(t, cfg)
			moved := counter("ue_attach_retransmits_total") - before
			if h != want {
				t.Errorf("seed=%d shards=%d: render hash %s, pinned %s", seed, shards, h, want)
			}
			if res.Retransmits == 0 || res.Retransmits > res.Sheds {
				t.Errorf("seed=%d shards=%d: %d retransmits for %d sheds", seed, shards, res.Retransmits, res.Sheds)
			}
			if built := res.Attempts - res.Retransmits; built < res.Grants+res.Denied {
				t.Errorf("seed=%d shards=%d: %d requests built for %d the broker consumed", seed, shards, built, res.Grants+res.Denied)
			}
			if moved != float64(res.Retransmits) {
				t.Errorf("seed=%d shards=%d: ue_attach_retransmits_total moved %v, result says %d", seed, shards, moved, res.Retransmits)
			}
			signedOncePerUE(t, res)
		}
	}
}
