package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
// supported reports whether at least ten samples lie beyond that rank —
// the rule the metrics guide sets for quoting a tail percentile; callers
// print the sample count either way.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// p99 is the 99th percentile of the named metric's samples; it says so on
// standard error when fewer than ten samples lie beyond it (short runs).
func p99(name string, xs []float64) float64 {
	v, ok := percentile(xs, 99)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d samples, fewer than ten beyond the 99th percentile\n", name, len(xs))
	}
	return v
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (exclusive: position
// k*(n+1)/4 with linear interpolation), so spreads computed here match
// the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
