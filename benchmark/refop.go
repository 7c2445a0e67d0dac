package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// A refop is the benchmark's unit of host speed: one ed25519.Sign plus one
// ed25519.Verify of a 256-byte message. Every timing that gates anything is
// divided by the time a refop took in the ~25 ms slices run immediately
// before and after it, on the same goroutine, so the second-scale speed
// drift of a shared host cancels out of the figure (see README.md).
type refKernel struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	msg  []byte
	n    int // refops per slice
}

const refSliceTarget = 25 * time.Millisecond

// newRefKernel derives the key and message from the seed and sizes a slice
// to about refSliceTarget on the host as it is now.
func newRefKernel(seed int64) *refKernel {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], uint64(seed))
	k := sha256.Sum256(append([]byte("cellbricks-bench-refop"), s[:]...))
	r := &refKernel{priv: ed25519.NewKeyFromSeed(k[:]), msg: make([]byte, 256), n: 32}
	r.pub = r.priv.Public().(ed25519.PublicKey)
	for i := range r.msg {
		r.msg[i] = k[i%len(k)] ^ byte(i)
	}
	r.slice() // warm tables and caches
	per := r.slice().wall
	if n := int(float64(refSliceTarget) / per); n > r.n {
		r.n = n
	}
	return r
}

// refSample is the cost of one refop in a slice, in nanoseconds.
type refSample struct{ wall, cpu float64 }

func (r *refKernel) slice() refSample {
	c0, t0 := cpuTime(), time.Now()
	for i := 0; i < r.n; i++ {
		r.msg[0] = byte(i)
		sig := ed25519.Sign(r.priv, r.msg)
		if !ed25519.Verify(r.pub, r.msg, sig) {
			panic("refop: signature does not verify")
		}
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	return refSample{float64(wall) / float64(r.n), float64(cpu) / float64(r.n)}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (ru_maxrss is KiB
// on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// segment is one timed stretch of workload ops between two reference
// slices.
type segment struct {
	ops, failed   int
	wall, cpu     time.Duration
	mallocs       uint64
	bytes         uint64
	rssMiB        float64 // the process's high-water mark when the segment ended
	before, after refSample
}

// refCost is a segment's time per op in refops: its wall (or CPU) time per
// op over the mean refop time of the two slices that bracket it.
func refCost(perOpNS, refBefore, refAfter float64) float64 {
	return perOpNS / ((refBefore + refAfter) / 2)
}

func (s segment) wallCost() float64 {
	return refCost(float64(s.wall)/float64(s.ops), s.before.wall, s.after.wall)
}

func (s segment) cpuCost() float64 {
	return refCost(float64(s.cpu)/float64(s.ops), s.before.cpu, s.after.cpu)
}

// timing is the outcome of one measured stretch: its segments plus the
// garbage-collector activity and the wall time spent, calibration included.
type timing struct {
	segs      []segment
	elapsed   time.Duration
	gcCycles  uint32
	gcPauseNS uint64
}

// measure runs fn(i) for i = 0, 1, ... as segments bracketed by reference
// slices until budget has elapsed (at least minSegs segments). fn reports
// how many ops it attempted and how many failed. Allocation counters are
// read outside the timed bracket.
func measure(ref *refKernel, budget time.Duration, minSegs int, fn func(i int) (ops, failed int, err error)) (*timing, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	t := &timing{}
	start := time.Now()
	prev := ref.slice()
	var longest time.Duration
	for i := 0; ; i++ {
		if el := time.Since(start); i >= minSegs && el+longest > budget {
			break
		}
		segStart := time.Now()
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		c0, t0 := cpuTime(), time.Now()
		ops, failed, err := fn(i)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		if ops <= 0 {
			return nil, fmt.Errorf("segment %d: no ops", i)
		}
		runtime.ReadMemStats(&ms)
		next := ref.slice()
		t.segs = append(t.segs, segment{
			ops: ops, failed: failed, wall: wall, cpu: cpu,
			mallocs: ms.Mallocs - m0, bytes: ms.TotalAlloc - b0, rssMiB: peakRSSMiB(),
			before: prev, after: next,
		})
		prev = next
		if d := time.Since(segStart); d > longest {
			longest = d
		}
	}
	t.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	t.gcCycles, t.gcPauseNS = ms.NumGC-gc0, ms.PauseTotalNs-pause0
	return t, nil
}

func (t *timing) ops() (attempted, failed int) {
	for _, s := range t.segs {
		attempted += s.ops
		failed += s.failed
	}
	return
}

func (t *timing) each(f func(segment) float64) []float64 {
	out := make([]float64, len(t.segs))
	for i, s := range t.segs {
		out[i] = f(s)
	}
	return out
}

func (t *timing) opCostRef() float64  { return median(t.each(segment.wallCost)) }
func (t *timing) cpuCostRef() float64 { return median(t.each(segment.cpuCost)) }

// perOp sums f over the segments and divides by the ops attempted.
func (t *timing) perOp(f func(segment) float64) float64 {
	n, _ := t.ops()
	sum := 0.0
	for _, s := range t.segs {
		sum += f(s)
	}
	return sum / float64(n)
}

func (t *timing) allocsPerOp() float64 {
	return t.perOp(func(s segment) float64 { return float64(s.mallocs) })
}

func (t *timing) allocKBPerOp() float64 {
	return t.perOp(func(s segment) float64 { return float64(s.bytes) / 1024 })
}

// rssSegments is the point of the measured stretch at which peak_rss_mb is
// read: state a workload keeps per op (brokerd's per-session records) makes
// the high-water mark grow with the op count, and how many ops fit into
// --seconds depends on the host's speed, so the mark is taken after a fixed
// number of segments instead of at the end.
const rssSegments = 50

func (t *timing) peakRSSMiB() float64 {
	return t.segs[min(rssSegments, len(t.segs))-1].rssMiB
}

// workWall is the wall time inside segments (calibration excluded).
func (t *timing) workWall() time.Duration {
	var d time.Duration
	for _, s := range t.segs {
		d += s.wall
	}
	return d
}

// refUS is the median wall time of a refop over every slice, in µs: the
// host's speed during the run.
func (t *timing) refUS() float64 { return median(t.refWalls()) / 1e3 }

func (t *timing) refWalls() []float64 {
	if len(t.segs) == 0 {
		return nil
	}
	out := []float64{t.segs[0].before.wall}
	for _, s := range t.segs {
		out = append(out, s.after.wall)
	}
	return out
}

// refDriftFrac is how far the host's speed moved within the run: slowest
// slice over fastest, minus one.
func (t *timing) refDriftFrac() float64 {
	s := sorted(t.refWalls())
	if len(s) == 0 || s[0] == 0 {
		return 0
	}
	return s[len(s)-1]/s[0] - 1
}

// calibShare is the share of the measured stretch spent in reference
// slices and counter reads rather than in workload ops.
func (t *timing) calibShare() float64 {
	if t.elapsed == 0 {
		return 0
	}
	return 1 - float64(t.workWall())/float64(t.elapsed)
}
