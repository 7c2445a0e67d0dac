package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"cellbricks/internal/mobility"
	"cellbricks/internal/testbed"
)

// The three emulator workloads run whole testbed experiments in virtual
// time: op counts, latencies and goodput are exact per seed, and only the
// host time a run takes is measured. Segment i uses seed+i.

// --- storm_emu: open-loop attach storm against the batching broker ---

type stormEmu struct {
	cfg  config
	base testbed.StormConfig

	runs                        int
	attaches, attempts, giveups int
	lat                         []float64 // pooled virtual-clock attach latencies, ms
	firstHash                   [32]byte
}

func newStormEmu(cfg config) *stormEmu {
	w := &stormEmu{cfg: cfg, base: testbed.StormConfig{
		Groups: 4, CellsPerGroup: 2, UEsPerGroup: 60, BaseRate: 60,
		Duration: 6 * time.Second, Shards: 1,
	}}
	if cfg.tiny {
		w.base.Groups, w.base.UEsPerGroup, w.base.BaseRate, w.base.Duration = 2, 12, 12, 2*time.Second
	}
	return w
}

func (w *stormEmu) run(i int, serial bool) (testbed.StormResult, error) {
	c := w.base
	c.Seed, c.Serial = w.cfg.seed+int64(i), serial
	return testbed.RunStorm(c)
}

func (w *stormEmu) setUp() error {
	_, err := w.run(0, false)
	return err
}

func (w *stormEmu) tearDown() {}

func (w *stormEmu) segment(i int, rec *recorder) (int, int, error) {
	rec.setOp(i)
	end := rec.begin("testbed.run_storm")
	r, err := w.run(i, false)
	end()
	if err != nil {
		return 0, 0, err
	}
	if r.Denied != 0 || r.Mismatches != 0 {
		return 0, 0, fmt.Errorf("seed %d: honest storm saw %d denials, %d billing mismatches", r.Config.Seed, r.Denied, r.Mismatches)
	}
	if r.Attaches == 0 {
		return 0, 0, fmt.Errorf("seed %d: no attach adopted", r.Config.Seed)
	}
	if i == 0 {
		w.firstHash = sha256.Sum256([]byte(r.Render()))
	}
	w.runs++
	w.attaches += r.Attaches
	w.attempts += r.Attempts
	w.giveups += r.GiveUps
	w.lat = append(w.lat, r.LatMS...)
	// An arrival whose UE exhausted its retry budget is an op that failed.
	return r.Attaches + r.GiveUps, r.GiveUps, nil
}

// verify re-runs the first seed: the emulator must render the same bytes.
func (w *stormEmu) verify(map[string]float64, int) error {
	r, err := w.run(0, false)
	if err != nil {
		return err
	}
	if h := sha256.Sum256([]byte(r.Render())); h != w.firstHash {
		return fmt.Errorf("seed %d rendered differently on a second run", r.Config.Seed)
	}
	return nil
}

func (w *stormEmu) layers(lc layerCtx) (map[string]float64, error) {
	// The serial broker (per-item handlers, no cache, no resume) against
	// the batched one, same seeds, interleaved.
	var cost [2]float64
	for mode, serial := range []bool{false, true} {
		c, _, err := costRef(lc.ref, w.cfg.reps(2), func(i int) (int, error) {
			r, err := w.run(i, serial)
			return r.Attaches, err
		})
		if err != nil {
			return nil, err
		}
		cost[mode] = c
	}
	return map[string]float64{
		"ue.attempts_per_attach":     float64(w.attempts) / float64(w.attaches),
		"ue.giveups":                 float64(w.giveups),
		"testbed.serial_cost_ratio":  cost[1] / cost[0],
		"testbed.sim_attach_ms_p50":  median(w.lat),
		"testbed.sim_attach_ms_p99":  p99("testbed.sim_attach_ms_p99", w.lat),
		"testbed.sim_attach_samples": float64(len(w.lat)),
		"testbed.sim_s_per_wall_s":   float64(w.runs) * w.base.Duration.Seconds() / lc.all.workWall().Seconds(),
	}, nil
}

// --- scale_emu: bulk downloads on the sharded world, no control plane ---

type scaleEmu struct {
	cfg     config
	base    testbed.ScaleConfig
	perSeg  int
	runs    int
	goodput []float64 // per-run per-UE p50, Mbit/s
	fair    []float64
}

func newScaleEmu(cfg config) *scaleEmu {
	w := &scaleEmu{cfg: cfg, perSeg: 2, base: testbed.ScaleConfig{
		N: 512, UEsPerCell: 64, CellBps: 50e6, Duration: 4 * time.Second, Shards: 2,
	}}
	if cfg.tiny {
		w.perSeg = 1
		w.base.N = 128 // two cells, still fair (smaller cells are not)
	}
	return w
}

func (w *scaleEmu) run(seed int64, shards int) testbed.ScaleResult {
	c := w.base
	c.Seed, c.Shards = seed, shards
	return testbed.RunScale(c)
}

// ueSeconds is the op count of one run: every UE downloads for the run's
// whole emulated duration.
func (w *scaleEmu) ueSeconds() int {
	return w.base.N * int(w.base.Duration.Seconds())
}

func (w *scaleEmu) setUp() error {
	for i := 0; i < 2*w.perSeg; i++ {
		w.run(w.cfg.seed, w.base.Shards)
	}
	return nil
}

func (w *scaleEmu) tearDown() {}

func (w *scaleEmu) segment(i int, rec *recorder) (int, int, error) {
	rec.setOp(i)
	for j := 0; j < w.perSeg; j++ {
		end := rec.begin("testbed.run_scale")
		r := w.run(w.cfg.seed+int64(i*w.perSeg+j), w.base.Shards)
		end()
		if r.Fairness < 0.95 {
			return 0, 0, fmt.Errorf("fairness %.3f below 0.95", r.Fairness)
		}
		w.runs++
		w.goodput = append(w.goodput, r.PerUEBps.P50/1e6)
		w.fair = append(w.fair, r.Fairness)
	}
	return w.perSeg * w.ueSeconds(), 0, nil
}

// verify checks the sharded run against the single-shard oracle.
func (w *scaleEmu) verify(map[string]float64, int) error {
	k2 := testbed.RenderScale([]testbed.ScaleResult{w.run(w.cfg.seed, w.base.Shards)})
	k1 := testbed.RenderScale([]testbed.ScaleResult{w.run(w.cfg.seed, 1)})
	if k1 != k2 {
		return fmt.Errorf("K=%d output differs from K=1:\n%s%s", w.base.Shards, k2, k1)
	}
	return nil
}

func (w *scaleEmu) layers(lc layerCtx) (map[string]float64, error) {
	var wall, cpu [2]float64
	for k := 1; k <= 2; k++ {
		var err error
		wall[k-1], cpu[k-1], err = costRef(lc.ref, w.cfg.reps(6), func(i int) (int, error) {
			w.run(w.cfg.seed+int64(i), k)
			return w.ueSeconds(), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"testbed.sim_goodput_mbps": median(w.goodput),
		"testbed.sim_s_per_wall_s": float64(w.runs) * w.base.Duration.Seconds() / lc.all.workWall().Seconds(),
		"testbed.fairness":         median(w.fair),
		"netem.shard_speedup_k2":   wall[0] / wall[1],
		"netem.cpu_inflation_k2":   cpu[1] / cpu[0],
	}, nil
}

// --- drive_emu: one UE's billed night drive on a single Sim ---

type driveEmu struct {
	cfg   config
	sc    testbed.Scenario
	cycle time.Duration

	runs, sessions, cycles int
	ueBytes, telcoBytes    uint64
}

func newDriveEmu(cfg config) *driveEmu {
	w := &driveEmu{cfg: cfg, cycle: 30 * time.Second, sc: testbed.Scenario{
		Route: mobility.Downtown, Night: true, Arch: testbed.ArchCellBricks, Duration: 3 * time.Minute,
	}}
	if cfg.tiny {
		w.sc.Duration, w.cycle = 20*time.Second, 5*time.Second
	}
	return w
}

func (w *driveEmu) scenario(i int, arch testbed.Arch) testbed.Scenario {
	sc := w.sc
	sc.Seed, sc.Arch = w.cfg.seed+int64(i), arch
	return sc
}

// simSeconds is the op count of one run.
func (w *driveEmu) simSeconds() int { return int(w.sc.Duration.Seconds()) }

func (w *driveEmu) setUp() error {
	for i := 0; i < 3; i++ {
		if _, err := testbed.RunBilledDrive(w.scenario(i, w.sc.Arch), w.cycle); err != nil {
			return err
		}
	}
	return nil
}

func (w *driveEmu) tearDown() {}

func (w *driveEmu) segment(i int, rec *recorder) (int, int, error) {
	rec.setOp(i)
	end := rec.begin("testbed.run_billed_drive")
	r, err := testbed.RunBilledDrive(w.scenario(i, w.sc.Arch), w.cycle)
	end()
	if err != nil {
		return 0, 0, err
	}
	if r.Sessions == 0 || r.Mismatches != 0 {
		return 0, 0, fmt.Errorf("seed %d: %d sessions, %d billing mismatches on an honest drive", w.cfg.seed+int64(i), r.Sessions, r.Mismatches)
	}
	w.runs++
	w.sessions += r.Sessions
	w.cycles += r.Cycles
	w.ueBytes += r.UEBytes
	w.telcoBytes += r.TelcoBytes
	return w.simSeconds(), 0, nil
}

// verify has nothing left to do: every run's sessions and mismatches were
// checked as it finished.
func (w *driveEmu) verify(map[string]float64, int) error { return nil }

func (w *driveEmu) layers(lc layerCtx) (map[string]float64, error) {
	// Three variants of the same drive, same seeds: the billed drive, the
	// same transport without the control plane (RunIperf), and the
	// single-path MNO baseline. Their differences price billing+SAP and
	// MPTCP+handovers per simulated second.
	var mnoMbps []float64
	variants := []func(i int) error{
		func(i int) error {
			_, err := testbed.RunBilledDrive(w.scenario(i, testbed.ArchCellBricks), w.cycle)
			return err
		},
		func(i int) error { testbed.RunIperf(w.scenario(i, testbed.ArchCellBricks)); return nil },
		func(i int) error {
			mnoMbps = append(mnoMbps, testbed.RunIperf(w.scenario(i, testbed.ArchBaseline)).AvgBps/1e6)
			return nil
		},
	}
	var cost [3]float64
	for v, fn := range variants {
		c, _, err := costRef(lc.ref, w.cfg.reps(6), func(i int) (int, error) { return w.simSeconds(), fn(i) })
		if err != nil {
			return nil, err
		}
		cost[v] = c
	}
	runs := float64(w.runs)
	return map[string]float64{
		"ue.attempts_per_attach":   1, // the in-sim attach has no retry path
		"testbed.sim_goodput_mbps": float64(w.ueBytes) * 8 / 1e6 / (runs * w.sc.Duration.Seconds()),
		"testbed.sim_s_per_wall_s": runs * w.sc.Duration.Seconds() / lc.all.workWall().Seconds(),
		"ue.sessions_per_drive":    float64(w.sessions) / runs,
		"ran.handovers_per_drive":  float64(w.sessions)/runs - 1, // one session per serving bTelco
		"billing.cycles_per_drive": float64(w.cycles) / runs,
		"billing.gap_frac":         float64(w.telcoBytes-w.ueBytes) / float64(w.telcoBytes),
		"billing.cost_delta_ref":   cost[0] - cost[1],
		"mptcp.cost_delta_ref":     cost[1] - cost[2],
		"apps.iperf_mbps_mno":      median(mnoMbps),
	}, nil
}
