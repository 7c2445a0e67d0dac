package testbed

import (
	"fmt"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
)

// ScaleConfig parameterizes a shared-cell contention run. UEs are grouped
// into cells of UEsPerCell subscribers; each cell is one air-interface
// bottleneck (a shared shaper pair) and lives, with all of its UEs and
// their servers, on one shard of a netem.World — the partition-by-cell
// structure Magma and SoftCell argue cellular cores scale by. Shards > 1
// runs the cells across that many shards in parallel; output is
// byte-identical for any shard count (the K-goldens in shard_test.go).
type ScaleConfig struct {
	Seed     int64
	N        int           // total UEs (default 1)
	CellBps  float64       // per-cell air-interface capacity (default 50 Mbps)
	Duration time.Duration // emulated time (default 60 s)
	// Shards is the netem.World shard count; <= 1 selects a single shard.
	// Callers wanting the hardware bound apply netem.ClampShards first —
	// RunScale deliberately does not, so determinism tests can run K >
	// NumCPU.
	Shards int
	// UEsPerCell sets the cell size (default 64, so the historical
	// single-cell points up to 64 UEs keep their exact shape).
	UEsPerCell int
}

func (c ScaleConfig) defaults() ScaleConfig {
	if c.N <= 0 {
		c.N = 1
	}
	if c.CellBps == 0 {
		c.CellBps = 50e6
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.UEsPerCell <= 0 {
		c.UEsPerCell = 64
	}
	return c
}

// ScaleSummary is the O(1) shape of a per-UE throughput distribution,
// reported instead of the raw O(N) slice at 10k-UE scale.
type ScaleSummary struct {
	P50 float64
	P90 float64
	P99 float64
	Min float64
	Max float64
}

func summarize(samples []float64) ScaleSummary {
	if len(samples) == 0 {
		return ScaleSummary{}
	}
	s := ScaleSummary{
		P50: apps.PercentileFloats(samples, 50),
		P90: apps.PercentileFloats(samples, 90),
		P99: apps.PercentileFloats(samples, 99),
		Min: samples[0],
		Max: samples[0],
	}
	for _, v := range samples[1:] {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}

// ScaleResult summarizes a shared-cell contention run: N UEs downloading
// through cells of fixed capacity. PerUE keeps every UE's rate for tests;
// at 10k UEs the percentile summary is what renders.
type ScaleResult struct {
	N        int
	Cells    int
	CellBps  float64
	TotalBps float64

	PerUE    []float64
	PerUEBps ScaleSummary

	Fairness float64 // Jain's index: 1.0 = perfectly fair

	// Heartbeats counts the cross-shard control-plane beats delivered to
	// the core endpoint — the traffic that exercises the shard mailboxes.
	Heartbeats uint64
}

// RunScale emulates cfg.N UEs attached to bTelco cells whose air
// interfaces are shared bottlenecks (one shaper pair per cell across its
// subscribers), each UE running a bulk download for the duration. Every
// cell tower also heartbeats a core endpoint on shard 0 over the
// backhaul, so multi-cell runs always carry cross-shard traffic. It
// reports aggregate utilization and fairness — the substance behind the
// paper's claim that the prototype "scales to a large number of users
// under different radio conditions".
//
// Determinism across shard counts: the data path draws no randomness (no
// loss/jitter on the access links), cells share no state with each other,
// and heartbeat phases are staggered per cell so no two cross-shard
// packets arrive at the core at one instant — the three conditions the
// netem.World byte-identity contract asks for.
func RunScale(cfg ScaleConfig) ScaleResult {
	cfg = cfg.defaults()
	n, per := cfg.N, cfg.UEsPerCell
	cells := (n + per - 1) / per

	w := netem.NewWorld(cfg.Seed, cfg.Shards)
	const coreIP = "scale-core"
	w.Place(coreIP, 0)
	var heartbeats uint64
	w.Register(coreIP, func(*netem.Packet) { heartbeats++ })

	const hbPeriod = time.Second
	backhaul := 25 * time.Millisecond

	conns := make([]*mptcp.Conn, n)
	ue := 0
	for c := 0; c < cells; c++ {
		shard := c % cfg.Shards
		sim := w.Shard(shard)
		cellIP := fmt.Sprintf("scale-cell-%d", c)
		w.Place(cellIP, shard)
		w.Connect(cellIP, coreIP, &netem.Link{Delay: backhaul})

		// One shared airtime shaper pair for the whole cell — shard-local
		// state, touched only by this cell's shard.
		dl := netem.NewShaper(netem.ConstantRate(cfg.CellBps), 256*1024, 0)
		dl.MaxQueueTime = 300 * time.Millisecond
		ul := netem.NewShaper(netem.ConstantRate(cfg.CellBps), 256*1024, 0)
		ul.MaxQueueTime = 300 * time.Millisecond

		for u := 0; u < per && ue < n; u, ue = u+1, ue+1 {
			ueIP := fmt.Sprintf("scale-ue-%d-%d", c, u)
			srvIP := fmt.Sprintf("scale-srv-%d-%d", c, u)
			w.Place(ueIP, shard)
			w.Place(srvIP, shard)
			link := &netem.Link{
				Delay:    25 * time.Millisecond,
				MaxQueue: 2 * time.Second,
			}
			// The shared shaper must police the downlink regardless of the
			// lexicographic ordering netem uses for direction naming.
			if srvIP < ueIP {
				link.ShaperAB, link.ShaperBA = dl, ul
			} else {
				link.ShaperAB, link.ShaperBA = ul, dl
			}
			w.Connect(srvIP, ueIP, link)
			conns[ue] = mptcp.NewConn(sim, srvIP, ueIP, mptcp.DefaultConfig())
			// Keep every sender backlogged.
			conn := conns[ue]
			var topUp *netem.Timer
			fill := func() {
				conn.Write(16 << 20)
				topUp.Reset(time.Second)
			}
			topUp = sim.NewTimer(fill)
			fill()
		}

		// Tower → core heartbeat with a per-cell phase: phases are distinct
		// in (0, hbPeriod), so cross-shard arrivals at the core never tie.
		phase := time.Duration(c+1) * hbPeriod / time.Duration(cells+1)
		var beat *netem.Timer
		beat = sim.NewTimer(func() {
			pkt := sim.GetPacket()
			pkt.Src, pkt.Dst, pkt.Size = cellIP, coreIP, 200
			sim.Send(pkt)
			beat.Reset(hbPeriod)
		})
		beat.Reset(phase - sim.Now())
	}

	w.RunUntil(cfg.Duration)

	res := ScaleResult{
		N: n, Cells: cells, CellBps: cfg.CellBps,
		PerUE:      make([]float64, n),
		Heartbeats: heartbeats,
	}
	var sum, sumSq float64
	for i, conn := range conns {
		bps := float64(conn.Delivered()) * 8 / cfg.Duration.Seconds()
		res.PerUE[i] = bps
		res.TotalBps += bps
		sum += bps
		sumSq += bps * bps
	}
	if sumSq > 0 {
		res.Fairness = sum * sum / (float64(n) * sumSq)
	}
	res.PerUEBps = summarize(res.PerUE)
	return res
}

// RunScaleSweep runs RunScale for each UE count in counts, sequentially:
// unlike the other experiment sweeps, each point parallelizes internally
// across the world's shards, so fanning points out over a Runner on top
// would only fight it for cores (and skew the per-point wall times).
func RunScaleSweep(cfg ScaleConfig, counts []int) []ScaleResult {
	out := make([]ScaleResult, len(counts))
	for i, n := range counts {
		c := cfg
		c.N = n
		out[i] = RunScale(c)
	}
	return out
}

// RenderScale prints a sweep of UE counts. Wall time is deliberately not
// rendered: this string is the byte-identity golden across shard counts.
func RenderScale(results []ScaleResult) string {
	out := fmt.Sprintf("%6s %6s %12s %12s %10s %11s %11s %6s\n",
		"UEs", "cells", "cell (Mbps)", "total (Mbps)", "fairness", "p50 (Mbps)", "p99 (Mbps)", "hb")
	for _, r := range results {
		out += fmt.Sprintf("%6d %6d %12.1f %12.2f %10.3f %11.2f %11.2f %6d\n",
			r.N, r.Cells, r.CellBps/1e6, r.TotalBps/1e6, r.Fairness,
			r.PerUEBps.P50/1e6, r.PerUEBps.P99/1e6, r.Heartbeats)
	}
	return out
}
