package testbed

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner fans independent experiment units out over a bounded worker
// pool. Every experiment cell in this package — a Table 1 route×time
// cell, a Fig. 7 placement×arch cell, a Fig. 9 trial, a scale-sweep
// point, a transport-comparison arm — is a self-contained,
// seed-deterministic simulation sharing no mutable state with its
// siblings, so the units can execute in any order on any number of
// goroutines. Callers hand each unit a dedicated result slot and
// reassemble in canonical order, which keeps aggregate numbers and
// Render() output byte-identical to a sequential run (asserted by the
// golden tests in parallel_test.go).
//
// The zero value runs with GOMAXPROCS workers. One worker is the escape
// hatch: single-goroutine execution in ascending unit order, exactly
// reproducing the pre-parallel code path.
type Runner struct {
	// Workers bounds the pool; 0 selects runtime.GOMAXPROCS(0).
	Workers int
}

// Seq is the sequential escape hatch, for golden tests and debugging.
var Seq = Runner{Workers: 1}

// workers resolves the pool size, clamping an explicit Workers to
// GOMAXPROCS — like netem.ClampShards, oversubscribing cores only adds
// scheduling overhead, and output never depends on the pool size.
func (r Runner) workers() int {
	max := runtime.GOMAXPROCS(0)
	if r.Workers > 0 && r.Workers < max {
		return r.Workers
	}
	return max
}

// ForEach invokes fn(i) for every i in [0, n) across the pool and
// returns once all invocations complete. fn must touch only state owned
// by unit i. With one worker the calls happen in
// ascending order on the calling goroutine.
func (r Runner) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runUnits collects fn(i) for i in [0, n) in index order — the canonical
// reassembly the experiment entry points rely on.
func runUnits[T any](r Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	r.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// runUnitsErr is runUnits for fallible units; it reports the
// lowest-indexed error so the failure surfaced is independent of
// scheduling.
func runUnitsErr[T any](r Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	r.ForEach(n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
