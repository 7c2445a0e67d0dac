package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cellbricks/internal/broker"
)

// stormTestConfig is small enough for CI yet busy enough to exercise
// every path: the spike overruns the admission rate (sheds, retries,
// reclaimed tickets), sessions live across report cycles (billing), and
// arrivals re-attach on the tickets their grants carried.
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

// Sanity: the workload actually exercises the machinery it claims to.
func TestStormExercisesStormPath(t *testing.T) {
	reclaims := counter("ue_attach_tickets_reclaimed_total")
	_, res := stormHash(t, stormTestConfig(2))
	if res.Arrivals == 0 || res.Attaches == 0 {
		t.Fatalf("inert storm: arrivals=%d attaches=%d", res.Arrivals, res.Attaches)
	}
	if res.Sheds == 0 || res.Retries == 0 {
		t.Errorf("spike never overran admission: sheds=%d retries=%d", res.Sheds, res.Retries)
	}
	if res.SpikeArrivals == 0 {
		t.Errorf("no arrivals classified into the spike window")
	}
	if counter("ue_attach_tickets_reclaimed_total") == reclaims {
		t.Errorf("no shed ticketed request handed its ticket back")
	}
	if res.Denied != 0 {
		t.Errorf("honest storm saw %d denials", res.Denied)
	}
	if res.Mismatches != 0 {
		t.Errorf("honest billing produced %d mismatches", res.Mismatches)
	}
	if res.Sessions == 0 || res.PaidUnits <= 0 {
		t.Errorf("billing inert: sessions=%d paid=%f", res.Sessions, res.PaidUnits)
	}
	if res.BatchFlushes == 0 || res.BatchItems == 0 {
		t.Errorf("batcher inert: flushes=%d items=%d", res.BatchFlushes, res.BatchItems)
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
	// Every attempt is the first try of an arrival or a scheduled retry
	// (a retry whose UE was overtaken by a newer arrival never runs, so
	// the sum is an upper bound).
	if res.Attempts < res.Arrivals || res.Attempts > res.Arrivals+res.Retries {
		t.Errorf("attempts=%d outside [arrivals=%d, arrivals+retries=%d]",
			res.Attempts, res.Arrivals, res.Arrivals+res.Retries)
	}
	// Grants the UE adopted cannot exceed broker grants.
	if res.Attaches > res.Grants {
		t.Errorf("adopted %d > granted %d", res.Attaches, res.Grants)
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Errorf("availability out of range: %f", res.Availability)
	}
}

// Retransmitting shed requests — and, since PR 25, abandoning a ticketed
// one for the other cell and riding its ticket — changes what the UEs
// compute, never what the storm renders: these are the hashes from before
// ue.AttachShelf existed for seeds {1, 3, 5}, which every K must still
// produce. Retransmits itself is unrendered bookkeeping: each one follows
// the shed that shelved its request, every grant or denial consumed a
// request built for it alone, and the obs counter agrees.
func TestStormRetransmitsShedRequestsAtParentHashes(t *testing.T) {
	parent := map[int64]string{
		1: "c1bb1f04173a8f5c159720f31e89dbf0bc29135b009d4a8b81ad195e640803ba",
		3: "a7226f4f21ab2127ae5867b927ec9563f624c59c848220cbba07be079a93b9fa",
		5: "f2d979c43c38191f1d7b9ed93b31f803c7b94098aa4b24c28dea0ff1c527d7ce",
	}
	for seed, want := range parent {
		for _, shards := range []int{1, 4} {
			cfg := stormTestConfig(shards)
			cfg.Seed = seed
			before := counter("ue_attach_retransmits_total")
			h, res := stormHash(t, cfg)
			moved := counter("ue_attach_retransmits_total") - before
			if h != want {
				t.Errorf("seed=%d shards=%d: render hash %s, parent rendered %s", seed, shards, h, want)
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
		}
	}
}
