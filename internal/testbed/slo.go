package testbed

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cellbricks/internal/billing"
)

// sloKind selects how a window aggregates into a value.
type sloKind int

const (
	ratioMin   sloKind = iota // good/total >= bound; an empty window is 1
	ratioMax                  // observed/allowed <= bound; an empty window is 0
	latencyP99                // p99, a bucket bound of latencyBounds, <= bound ns
)

var sloKindNames = [...]string{ratioMin: "ratio-min", ratioMax: "ratio-max", latencyP99: "latency-p99"}

// latencyBounds are the latency buckets' upper bounds; a sample above the
// last lands in an overflow bucket.
var latencyBounds = [...]time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// ByzSLO is one windowed objective's run summary. A margin < 0 is a breach;
// a burn > 1 spends the window's budget faster than the objective allows.
type ByzSLO struct {
	Name, Kind                      string
	LastValue, WorstMargin, MaxBurn float64
	Breaches, Evals                 int
}

// sloBucket is one slice of a window, reset when a new epoch lands on it;
// one never written is all zeros and adds nothing to a window.
type sloBucket struct {
	start time.Duration // aligned bucket start
	a, b  float64
	lat   [len(latencyBounds) + 1]uint32
}

// sloWindow is one of the Byzantine soak's windowed SLOs: a ring of
// fixed-width buckets over the broker clock, written and evaluated only by
// shard-0 handlers (the 1 Hz tick runs at a lattice phase no other event
// occupies), so every value and every breach crossing is the same for any
// shard count.
type sloWindow struct {
	ByzSLO
	kind          sloKind
	bound         float64
	telco         string        // a per-cell overbilling window's bTelco, else ""
	window, width time.Duration // width: of one bucket
	ring          []sloBucket
	breached      bool
}

func newSLOWindow(name string, kind sloKind, bound float64, window time.Duration, buckets int) *sloWindow {
	return &sloWindow{ByzSLO: ByzSLO{Name: name, Kind: sloKindNames[kind]}, kind: kind, bound: bound,
		window: window, width: window / time.Duration(buckets), ring: make([]sloBucket, buckets)}
}

// bucketFor returns the ring bucket covering at, reset if it holds a stale
// epoch.
func (t *sloWindow) bucketFor(at time.Duration) *sloBucket {
	start := at - at%t.width
	bk := &t.ring[int(start/t.width)%len(t.ring)]
	if bk.start != start {
		*bk = sloBucket{start: start}
	}
	return bk
}

// observeRatio adds num/den to the window at at.
func (t *sloWindow) observeRatio(at time.Duration, num, den float64) {
	bk := t.bucketFor(at)
	bk.a += num
	bk.b += den
}

// observeDuration adds one latency sample to the window at at.
func (t *sloWindow) observeDuration(at, d time.Duration) {
	i, _ := slices.BinarySearch(latencyBounds[:], d) // the first bound >= d
	t.bucketFor(at).lat[i]++
}

// tick scores the window at now into the run summary and reports whether
// it crossed the objective, either way (breached says which).
func (t *sloWindow) tick(now time.Duration) (value, margin, burn float64, crossed bool) {
	var a, b float64
	var lat [len(latencyBounds) + 1]uint64
	var total uint64
	// Live epochs are bucket starts in (now-window, now]: exactly the ring.
	lo := now - t.window
	for i := range t.ring {
		bk := &t.ring[i]
		if bk.start <= lo || bk.start > now {
			continue
		}
		a += bk.a
		b += bk.b
		for j, c := range bk.lat {
			lat[j] += uint64(c)
			total += uint64(c)
		}
	}
	switch t.kind {
	case ratioMin:
		value = 1
		if b > 0 {
			value = a / b
		}
		margin, burn = value-t.bound, (1-value)/(1-t.bound)
	case ratioMax:
		if b > 0 {
			value = a / b
		}
		margin, burn = t.bound-value, value/t.bound
	case latencyP99:
		p99 := windowP99(&lat, total)
		value, margin, burn = p99.Seconds(), (t.bound-float64(p99))/t.bound, float64(p99)/t.bound
	}
	t.Evals++
	t.LastValue = value
	if t.Evals == 1 || margin < t.WorstMargin {
		t.WorstMargin = margin
	}
	if burn > t.MaxBurn {
		t.MaxBurn = burn
	}
	if crossed = (margin < 0) != t.breached; crossed {
		t.breached = !t.breached
		if t.breached {
			t.Breaches++
		}
	}
	return value, margin, burn, crossed
}

// windowP99 is the upper bound of the bucket holding the 99th-percentile
// sample; the overflow bucket reports twice the last bound.
func windowP99(lat *[len(latencyBounds) + 1]uint64, total uint64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(0.99*float64(total))), 1)
	var cum uint64
	for i, c := range lat[:len(latencyBounds)] {
		if cum += c; cum >= rank {
			return latencyBounds[i]
		}
	}
	return 2 * latencyBounds[len(latencyBounds)-1]
}

// sloTick evaluates every SLO at now, in order, and acts on each crossing.
func (w *byzWorld) sloTick(now time.Duration) {
	for _, t := range w.slos {
		value, margin, burn, crossed := t.tick(now)
		if !crossed {
			continue
		}
		name := "breach-exit"
		if t.breached {
			name = "breach-enter"
		}
		w.cfg.Tracer.Event("slo", name, map[string]string{"slo": t.Name, "value": fmt.Sprintf("%.4f", value),
			"margin": fmt.Sprintf("%+.4f", margin), "burn": fmt.Sprintf("%.2f", burn)})
		if t.breached && t.telco != "" {
			score := w.Broker.Evidence(t.telco, billing.SLOBreachEvidence, 1)
			w.cfg.Tracer.Event("slo", "signal", map[string]string{"telco": t.telco, "score": fmt.Sprintf("%.3f", score)})
		}
	}
}
