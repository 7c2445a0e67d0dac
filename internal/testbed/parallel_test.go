package testbed

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// --- Runner mechanics ---

func TestRunnerSequentialOrder(t *testing.T) {
	var order []int
	Seq.ForEach(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	if len(order) != 10 {
		t.Fatalf("%d calls", len(order))
	}
}

func TestRunnerParallelCoversAllUnits(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	Runner{Workers: 8}.ForEach(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Fatalf("unit %d ran %d times", i, c)
		}
	}
}

func TestRunnerZeroUnits(t *testing.T) {
	Runner{}.ForEach(0, func(int) { t.Fatal("called") })
	Runner{}.ForEach(-3, func(int) { t.Fatal("called") })
}

func TestRunUnitsErrLowestIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	_, err := runUnitsErr(Runner{Workers: 4}, 8, func(i int) (int, error) {
		switch i {
		case 2:
			return 0, errB
		case 5:
			return 0, errA
		}
		return i, nil
	})
	if err != errB {
		t.Fatalf("got %v, want the lowest-indexed error", err)
	}
}

// --- Golden parallel == sequential ---

// freezeBenchClock pins the wall-clock source the attach benchmark charges
// real-crypto time from, removing the only nondeterministic input to the
// Fig. 7 numbers. Restores on cleanup.
func freezeBenchClock(t *testing.T) {
	t.Helper()
	prev := benchNow
	frozen := time.Unix(1_750_000_000, 0)
	benchNow = func() time.Time { return frozen }
	t.Cleanup(func() { benchNow = prev })
}

func TestFig7ParallelMatchesSequential(t *testing.T) {
	freezeBenchClock(t)
	seqRes, err := RunFig7(5, Seq)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := RunFig7(5, Runner{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := RenderFig7(seqRes), RenderFig7(parRes); s != p {
		t.Fatalf("Fig. 7 output differs\nsequential:\n%s\nparallel:\n%s", s, p)
	}
}

func TestTable1ParallelMatchesSequential(t *testing.T) {
	cfg := Table1Config{Duration: 45 * time.Second, Seed: 7}
	cfg.Runner = Seq
	s := RunTable1(cfg).Render()
	cfg.Runner = Runner{Workers: 4}
	p := RunTable1(cfg).Render()
	if s != p {
		t.Fatalf("Table 1 output differs\nsequential:\n%s\nparallel:\n%s", s, p)
	}
}

func TestFig9ParallelMatchesSequential(t *testing.T) {
	s := runFig9(7, 2, 90*time.Second, Seq).Render()
	p := runFig9(7, 2, 90*time.Second, Runner{Workers: 4}).Render()
	if s != p {
		t.Fatalf("Fig. 9 output differs\nsequential:\n%s\nparallel:\n%s", s, p)
	}
}

func TestTransportsAndScaleParallelMatchSequential(t *testing.T) {
	ts := RunTransportComparisonAll(5, 90*time.Second, Seq)
	tp := RunTransportComparisonAll(5, 90*time.Second, Runner{Workers: 4})
	if len(ts) != len(tp) {
		t.Fatalf("%d vs %d transport arms", len(ts), len(tp))
	}
	for i := range ts {
		if ts[i] != tp[i] {
			t.Fatalf("arm %d: %+v vs %+v", i, ts[i], tp[i])
		}
	}

	// Scale parallelizes inside each point (across world shards) instead
	// of across points; the shard-count equivalent of this golden lives in
	// shard_test.go.
	cfg := ScaleConfig{Seed: 17, CellBps: 20e6, Duration: 3 * time.Second}
	counts := []int{1, 3}
	ss := RunScaleSweep(cfg, counts)
	cfg.Shards = 4
	sp := RunScaleSweep(cfg, counts)
	if RenderScale(ss) != RenderScale(sp) {
		t.Fatalf("scale sweep differs\n1 shard:\n%s\n4 shards:\n%s", RenderScale(ss), RenderScale(sp))
	}
}

// --- Attach-bench span accounting ---

// TestAttachBreakdownPinned pins the per-module breakdown with the wall
// clock frozen, so only the static calibrated costs remain: the breakdown
// must reproduce them exactly, including the architectural difference in
// round trips (2 S6A visits for baseline vs 1 broker visit for SAP).
func TestAttachBreakdownPinned(t *testing.T) {
	freezeBenchClock(t)
	place := PlacementUSWest

	bl, err := RunAttachBench(ArchBaseline, place, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantBL := map[string]time.Duration{
		SpanUE:      costUE,
		SpanENB:     costENB,
		SpanAGW:     costAGWBase,
		SpanSDB:     2 * costSDBVisit, // AIR + ULR
		SpanBrokerd: 0,
		SpanOther:   2 * 2 * place.OneWay, // two S6A round trips
	}
	for k, want := range wantBL {
		if got := bl.Breakdown[k]; got != want {
			t.Errorf("BL %s = %v, want %v", k, got, want)
		}
	}

	// The paper's row and the ticketed one differ only in measured crypto
	// time, which the frozen clock removes: same modules, same round trip.
	wantCB := map[string]time.Duration{
		SpanUE:      costUE,
		SpanENB:     costENB,
		SpanAGW:     costAGWSAP,
		SpanSDB:     0,
		SpanBrokerd: costBrokerd,
		SpanOther:   2 * place.OneWay, // one SAP round trip
	}
	var cbRows []AttachBenchResult
	for _, arch := range []Arch{ArchCellBricks, ArchCellBricksTicketed} {
		cb, err := RunAttachBench(arch, place, 4)
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range wantCB {
			if got := cb.Breakdown[k]; got != want {
				t.Errorf("%s %s = %v, want %v", arch, k, got, want)
			}
		}
		cbRows = append(cbRows, cb)
	}

	// The mean must equal the sum of the per-module means: nothing charged
	// during an attach escapes the breakdown, and nothing charged outside
	// one (e.g. world setup) leaks in.
	for _, r := range append(cbRows, bl) {
		var sum time.Duration
		for _, v := range r.Breakdown {
			sum += v
		}
		if sum != r.Mean {
			t.Errorf("%s: breakdown sums to %v, mean is %v", r.Arch, sum, r.Mean)
		}
	}
}

// Fig. 7's "CB" row is the paper's handshake on every sample, not only the
// first: each sample's SIM has never attached. The "CBt" row is the
// opposite — its one first contact happens before sampling starts.
func TestFig7RowsMeasureTheHandshakeTheyName(t *testing.T) {
	freezeBenchClock(t)
	for _, tc := range []struct {
		arch         Arch
		prime        bool
		wantTicketed int
	}{{ArchCellBricks, false, 0}, {ArchCellBricksTicketed, true, 4}} {
		w, err := newAttachWorld(PlacementLocal)
		if err != nil {
			t.Fatal(err)
		}
		if tc.prime {
			if _, err := w.RunAttach(tc.arch, -1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if _, err := w.RunAttach(tc.arch, i); err != nil {
				t.Fatal(err)
			}
		}
		if w.ticketed != tc.wantTicketed {
			t.Errorf("%s: %d of 4 samples reached brokerd on a ticket, want %d", tc.arch, w.ticketed, tc.wantTicketed)
		}
		// The bTelco leg goes with the UE leg: the paper's row signs both,
		// the steady-state row MACs both (DESIGN.md §2.9).
		if w.macd != tc.wantTicketed {
			t.Errorf("%s: %d of 4 samples reached brokerd under the bTelco's pass, want %d", tc.arch, w.macd, tc.wantTicketed)
		}
	}
}

// TestAttachSampleExcludesPriorCharges pins the delta semantics of
// RunAttach directly: charges made before the attach — setup work, or a
// previous attach on the same world — must not appear in the sample.
func TestAttachSampleExcludesPriorCharges(t *testing.T) {
	freezeBenchClock(t)
	w, err := newAttachWorld(PlacementLocal)
	if err != nil {
		t.Fatal(err)
	}
	w.clock.Charge(SpanUE, 5*time.Second) // simulated setup charge
	s, err := w.RunAttach(ArchCellBricks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spans[SpanUE] != costUE {
		t.Fatalf("sample UE span %v includes prior charges (want %v)", s.Spans[SpanUE], costUE)
	}
	if s.Total != costUE+costENB+costAGWSAP+costBrokerd+2*PlacementLocal.OneWay {
		t.Fatalf("sample total %v", s.Total)
	}
}
