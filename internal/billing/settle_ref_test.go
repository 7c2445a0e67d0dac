package billing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The reference the folded settlement is held to: how the broker settled a
// session until it kept one record per session — every accepted report
// stored, the two streams paired by nearest relative timestamp, the Fig. 5
// threshold re-run over each pair, the newest pair priced. It was production
// code (AlignByTime, AlignedPair, the pair-list Settle, and the threshold
// copy in broker.SettleSession); it is kept verbatim but for the names.

type alignedPair struct {
	UE, Telco  *Report
	Mismatched bool
}

// alignByTime pairs two report streams by nearest relative timestamp
// within half a reporting cycle.
func alignByTime(ue, telco []*Report, cycle time.Duration) []alignedPair {
	sort.Slice(ue, func(i, j int) bool { return ue[i].Rel < ue[j].Rel })
	sort.Slice(telco, func(i, j int) bool { return telco[i].Rel < telco[j].Rel })
	var out []alignedPair
	j := 0
	for _, u := range ue {
		for j < len(telco) && telco[j].Rel < u.Rel-cycle/2 {
			j++
		}
		if j < len(telco) && absDur(telco[j].Rel-u.Rel) <= cycle/2 {
			out = append(out, alignedPair{UE: u, Telco: telco[j]})
			j++
		}
	}
	return out
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// refSettle is the reference settlement of one session from the reports the
// broker accepted for it: align, judge every pair, price the newest.
func refSettle(cfg VerifierConfig, ref, idT string, ue, telco []*Report, cycle time.Duration, pricePerGB float64) (st Settlement, mismatches int) {
	pairs := alignByTime(ue, telco, cycle)
	slack := float64(cfg.SlackBytes)
	if slack == 0 {
		slack = 1500
	}
	for i := range pairs {
		th := float64(pairs[i].UE.DLBytes)*(pairs[i].UE.QoS.DLLossRate+cfg.Epsilon) + slack
		diff := float64(pairs[i].Telco.DLBytes) - float64(pairs[i].UE.DLBytes)
		if diff < 0 {
			diff = -diff
		}
		if pairs[i].Mismatched = diff > th; pairs[i].Mismatched {
			mismatches++
		}
	}
	var last *alignedPair
	disputed := false
	for i := range pairs {
		if pairs[i].Mismatched {
			disputed = true
		}
		if last == nil || pairs[i].UE.Rel > last.UE.Rel {
			last = &pairs[i]
		}
	}
	st = Settlement{SessionRef: ref, IDT: idT, Disputed: disputed}
	if last == nil {
		return st, mismatches
	}
	total := last.UE.DLBytes + last.UE.ULBytes
	if !last.Mismatched {
		total = (total + last.Telco.DLBytes + last.Telco.ULBytes) / 2
	}
	st.VerifiedBytes = total
	st.Amount = float64(total) / 1e9 * pricePerGB
	return st, mismatches
}

const refCycle = 30 * time.Second

// refRun feeds a verifier one session's arrivals and keeps what the
// reference needs: the accepted reports of each side.
type refRun struct {
	v          *Verifier
	ue, telco  []*Report
	mismatches int
	capped     bool // the cap on unpaired halves evicted one
}

func newRefRun() *refRun {
	run := &refRun{v: NewVerifier(DefaultVerifierConfig())}
	run.v.BindSession("sess", "user-1", "telco-1")
	return run
}

// ingest hands r to the verifier, checks the invariants of the session's
// unpaired halves, and reports whether r was accepted.
func (run *refRun) ingest(r *Report) (bool, error) {
	s := run.v.sessions[r.SessionRef]
	full := len(s.halves) == maxHalves
	mm, err := run.v.Ingest(r)
	if errors.Is(err, ErrReplayedReport) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if mm != nil {
		run.mismatches++
	}
	h := s.halves
	if len(h) > maxHalves {
		return true, fmt.Errorf("%d unpaired halves, cap %d", len(h), maxHalves)
	}
	for i := range h {
		other := s.fresh[2-h[i].Reporter]
		if h[i].Reporter != h[0].Reporter || (i > 0 && h[i].Seq <= h[i-1].Seq) || (other.seen && h[i].Seq <= other.seq) {
			return true, fmt.Errorf("halves out of order, mixed or unpairable at %d: %+v", i, *h[i])
		}
	}
	if full && len(h) == maxHalves && h[len(h)-1] == r {
		run.capped = true
	}
	if r.Reporter == ReporterUE {
		run.ue = append(run.ue, r)
	} else {
		run.telco = append(run.telco, r)
	}
	return true, nil
}

// compare requires the folded settlement and the mismatch count to equal
// the reference's over the accepted reports.
func (run *refRun) compare() error {
	got := run.v.Settle("sess", 1.5)
	got.Unpaired = 0 // the reference has no notion of it
	want, mismatches := refSettle(DefaultVerifierConfig(), "sess", "telco-1", run.ue, run.telco, refCycle, 1.5)
	if got != want || run.mismatches != mismatches {
		return fmt.Errorf("folded %+v with %d mismatches, reference %+v with %d", got, run.mismatches, want, mismatches)
	}
	return nil
}

// TestFoldedSettlementMatchesReference: over seeded random streams in which
// both sides number and time their reports alike, what ingest folds is what
// the reference computes from every stored report — honest, inflated and
// under-reported sessions, replays, a side that misses cycles, and the two
// reporters' arrivals interleaved up to the cap apart.
func TestFoldedSettlementMatchesReference(t *testing.T) {
	disputed, zero := 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run := newRefRun()
		cycles := 1 + rng.Intn(24)
		inflate := []float64{1, 1, 1.02, 3, 0.4}[rng.Intn(5)] // the bTelco's claim, as a multiple of the truth
		missP := []float64{0, 0, 0.2}[rng.Intn(3)]
		var queue [2][]*Report // what each side will send, in its order
		var truth uint64
		rel := time.Duration(0)
		for seq := uint32(1); seq <= uint32(cycles); seq++ {
			truth += uint64(rng.Intn(5_000_000))
			rel += refCycle + time.Duration(rng.Intn(1000))*time.Millisecond
			loss := float64(rng.Intn(4)) / 100
			claimed := truth
			if rng.Intn(3) > 0 { // a dishonest bTelco does not lie every cycle
				claimed = uint64(float64(truth) * inflate)
			}
			for side, r := range []*Report{
				{SessionRef: "sess", Reporter: ReporterUE, Seq: seq, Rel: rel, DLBytes: truth, ULBytes: truth / 10, QoS: QoSMetrics{DLLossRate: loss}},
				{SessionRef: "sess", Reporter: ReporterTelco, Seq: seq, Rel: rel, DLBytes: claimed, ULBytes: truth / 10},
			} {
				if rng.Float64() >= missP {
					queue[side] = append(queue[side], r)
				}
			}
		}
		var sent []*Report
		for len(queue[0])+len(queue[1]) > 0 {
			// Either side may be next, while neither runs so far ahead that
			// the cap would evict a half whose counterpart is still to come.
			side := rng.Intn(2)
			ahead := func(a, b int) bool {
				return len(queue[b]) > 0 && len(queue[a]) > 0 && int(queue[a][0].Seq)-int(queue[b][0].Seq) >= maxHalves-1
			}
			if len(queue[side]) == 0 || ahead(side, 1-side) {
				side = 1 - side
			}
			r := queue[side][0]
			queue[side] = queue[side][1:]
			if ok, err := run.ingest(r); err != nil || !ok {
				t.Fatalf("seed %d: seq %d of reporter %d: accepted %v, %v", seed, r.Seq, r.Reporter, ok, err)
			}
			sent = append(sent, r)
			if rng.Intn(8) == 0 { // and now and then somebody replays
				old := *sent[rng.Intn(len(sent))]
				if ok, err := run.ingest(&old); err != nil || ok {
					t.Fatalf("seed %d: replay of seq %d: accepted %v, %v", seed, old.Seq, ok, err)
				}
			}
		}
		if err := run.compare(); err != nil {
			t.Fatalf("seed %d (%d cycles, claim x%v, miss %v): %v", seed, cycles, inflate, missP, err)
		}
		st := run.v.Settle("sess", 1.5)
		if st.Disputed {
			disputed++
		}
		if st.VerifiedBytes == 0 {
			zero++
		}
	}
	// The streams must have exercised both verdicts.
	if disputed < 50 || disputed > 350 || zero > 150 {
		t.Fatalf("%d of 400 sessions disputed, %d settled at zero: the generator is off", disputed, zero)
	}
}

// FuzzIngestSettle drives one session from raw bytes, three per report:
// who and how far Seq advances (0 is a replay), how far Rel advances when
// the report does not time itself by its Seq, and what it claims. Whatever
// arrives: no panic, never more than maxHalves unpaired halves, all of
// them pairable. When every report timed itself by its Seq and the cap
// evicted nothing, the fold equals the reference.
func FuzzIngestSettle(f *testing.F) {
	f.Add([]byte("\x02\x00\x10\x03\x00\x10\x02\x00\x20\x03\x00\x20"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		run := newRefRun()
		var seq [2]uint32
		var rel [2]time.Duration
		agree := true
		for ; len(data) >= 3; data = data[3:] {
			side := int(data[0] & 1)
			seq[side] += uint32(data[0] >> 1 & 3)
			if data[0]&8 == 0 {
				rel[side] = time.Duration(seq[side]) * refCycle
			} else {
				agree = false
				rel[side] += time.Duration(data[1]) * time.Second
			}
			bytes := uint64(seq[side]) * 1_000_000 * uint64(1+data[2]>>4) / uint64(1+data[2]&15)
			r := &Report{SessionRef: "sess", Reporter: Reporter(side + 1), Seq: seq[side], Rel: rel[side],
				DLBytes: bytes, ULBytes: bytes / 10, QoS: QoSMetrics{DLLossRate: float64(data[1]&7) / 100}}
			if _, err := run.ingest(r); err != nil {
				t.Fatal(err)
			}
		}
		st := run.v.Settle("sess", 1.5)
		if math.IsNaN(st.Amount) || st.Amount < 0 || st.Unpaired > maxHalves {
			t.Fatalf("settlement %+v", st)
		}
		if agree && !run.capped {
			if err := run.compare(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
