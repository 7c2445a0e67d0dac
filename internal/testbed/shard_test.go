package testbed

import (
	"runtime"
	"testing"
	"time"

	"cellbricks/internal/netem"
)

// K-invariance goldens: the sharded world's contract is that shard count is
// a pure performance knob — the rendered experiment output (the same bytes
// cbbench hashes as output_sha256) must be byte-identical for every K.
// These tests construct worlds with explicit K above runtime.NumCPU if need
// be (netem.World clamps only its worker pool, never the partition), so the
// goldens are meaningful on single-core runners too.

// TestScaleShardGoldenSHA256 runs the scale experiment across shard counts
// and requires one hash. Multiple cells per shard (N > Shards*UEsPerCell)
// exercises both the partition and the cross-shard heartbeat path.
func TestScaleShardGoldenSHA256(t *testing.T) {
	cfg := ScaleConfig{
		Seed:       17,
		N:          130,
		UEsPerCell: 48, // 3 cells: shards 0,1,2 at K=4 — one shard idle
		CellBps:    20e6,
		Duration:   3 * time.Second,
	}
	cfg.Shards = 1
	want := renderSHA(RenderScale([]ScaleResult{RunScale(cfg)}))
	for _, k := range []int{2, 4, 8} {
		cfg.Shards = k
		got := renderSHA(RenderScale([]ScaleResult{RunScale(cfg)}))
		if got != want {
			t.Fatalf("K=%d output hash %s != K=1 hash %s", k, got, want)
		}
	}
}

// TestScaleOneHashAtCISizes is the shard determinism gate at the CI
// speedup artifact's sizes (cbbench -exp scale -scale-n 64,2048 -dur 10s
// -seed 17): the sweep renders one hash at K = 1, 2 and 4.
func TestScaleOneHashAtCISizes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ScaleConfig{Seed: 17, CellBps: 50e6, Duration: 10 * time.Second}
	var want string
	for _, k := range []int{1, 2, 4} {
		cfg.Shards = k
		got := renderSHA(RenderScale(RunScaleSweep(cfg, []int{64, 2048})))
		if k == 1 {
			want = got
		} else if got != want {
			t.Fatalf("K=%d output hash %s != K=1 hash %s", k, got, want)
		}
	}
}

// TestScaleWindowCount pins the barrier count of one scale run: 3 s at the
// 25 ms backhaul is 120 lock-step windows whenever a cell sits off the
// core's shard, and one window at K=1, where no link crosses shards.
func TestScaleWindowCount(t *testing.T) {
	cfg := ScaleConfig{Seed: 17, N: 130, UEsPerCell: 48, CellBps: 20e6, Duration: 3 * time.Second}
	for k, want := range map[int]float64{1: 1, 2: 120, 4: 120} {
		cfg.Shards = k
		before := counter("netem_world_windows_total")
		RunScale(cfg)
		if got := counter("netem_world_windows_total") - before; got != want {
			t.Errorf("K=%d: %v windows, want %v", k, got, want)
		}
	}
}

// TestFailoverShardGoldenSHA256 pins the failover experiment to one hash
// across re-runs. The failover world is a single fault domain on one
// netem.Sim: there is no shard count to vary.
func TestFailoverShardGoldenSHA256(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	hash := func() string {
		r, err := RunFailover(FailoverConfig{Seed: 9, Duration: 45 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return renderSHA(r.Render())
	}
	if first, second := hash(), hash(); first != second {
		t.Fatalf("second run's output hash %s != the first's %s", second, first)
	}
}

// TestScaleShardsAboveNumCPU documents that the partition is honored even
// when K exceeds the machine: worker goroutines clamp, shard layout doesn't.
func TestScaleShardsAboveNumCPU(t *testing.T) {
	k := runtime.GOMAXPROCS(0) * 2
	cfg := ScaleConfig{Seed: 3, N: 8, UEsPerCell: 2, CellBps: 20e6, Duration: 2 * time.Second}
	cfg.Shards = 1
	want := RenderScale([]ScaleResult{RunScale(cfg)})
	cfg.Shards = k
	got := RenderScale([]ScaleResult{RunScale(cfg)})
	if got != want {
		t.Fatalf("K=%d differs from K=1:\n%s\nvs\n%s", k, got, want)
	}
}

// TestClampShardsRecordedInBench mirrors what cbbench records: the
// effective shard count never exceeds GOMAXPROCS and never drops below 1.
func TestClampShardsRecordedInBench(t *testing.T) {
	if got := netem.ClampShards(0); got != 1 {
		t.Fatalf("ClampShards(0) = %d", got)
	}
	if got := netem.ClampShards(1 << 16); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ClampShards(big) = %d, want GOMAXPROCS", got)
	}
}

// TestScaleTenThousandUEs is the headline scale point from the issue: one
// emulated world with >=10k UEs completes and keeps the shared-cell
// contention properties (near-full utilization, high Jain fairness). Kept
// short per-point so the suite stays fast; the full 60 s sweep lives in
// cbbench -exp scale.
func TestScaleTenThousandUEs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ScaleConfig{
		Seed:     17,
		N:        10240,
		CellBps:  50e6,
		Duration: 2 * time.Second,
		Shards:   netem.ClampShards(4),
	}
	r := RunScale(cfg)
	if r.Cells != 160 {
		t.Fatalf("cells = %d, want 160", r.Cells)
	}
	util := r.TotalBps / (float64(r.Cells) * r.CellBps)
	if util < 0.5 || util > 1.05 {
		t.Fatalf("aggregate utilization %.2f outside [0.5, 1.05]", util)
	}
	if r.Fairness < 0.7 {
		t.Fatalf("Jain fairness %.3f < 0.7 at 10k UEs", r.Fairness)
	}
	if r.Heartbeats == 0 {
		t.Fatal("no cross-shard heartbeats counted")
	}
	if r.PerUEBps.P50 <= 0 || r.PerUEBps.Min > r.PerUEBps.Max {
		t.Fatalf("bad per-UE summary: %+v", r.PerUEBps)
	}
}

// TestScaleWallClockRecorded sanity-checks the wall-time instrumentation
// the speedup artifact relies on: strictly positive and excludes setup.
func TestScaleWallClockRecorded(t *testing.T) {
	r := RunScale(ScaleConfig{Seed: 1, N: 4, CellBps: 20e6, Duration: 500 * time.Millisecond})
	if r.WallMS <= 0 {
		t.Fatalf("WallMS = %v", r.WallMS)
	}
}
