package netem

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// simStreamMismatch runs ops against a Sim's stream and against
// rand.New(rand.NewSource(seed)) side by side and describes the first draw
// on which they differ ("" if none). An op byte picks the draw: the direct
// Float64 Send makes, or one through Sim.Rand — Float64, Intn, Int63n,
// Uint64, Perm, and (op 255 only, so the stream runs long between) Seed.
func simStreamMismatch(seed int64, ops []byte) string {
	s, ref := NewSim(seed), rand.New(rand.NewSource(seed))
	for i, op := range ops {
		n := int(op) + 1
		var got, want any
		switch {
		case op == 255:
			v := ref.Int63() - 1<<62 // negative seeds too
			if w := s.Rand().Int63() - 1<<62; w != v {
				got, want = w, v
				break
			}
			s.Rand().Seed(v)
			ref.Seed(v)
			continue
		case op%8 < 3:
			got, want = s.src.Float64(), ref.Float64()
		case op%8 == 3:
			got, want = s.Rand().Float64(), ref.Float64()
		case op%8 == 4:
			got, want = s.Rand().Intn(n*37), ref.Intn(n*37)
		case op%8 == 5:
			got, want = s.Rand().Int63n(int64(n)<<40+1), ref.Int63n(int64(n)<<40+1)
		case op%8 == 6:
			got, want = s.Rand().Uint64(), ref.Uint64()
		default:
			if g, w := s.Rand().Perm(n%24), ref.Perm(n%24); !slices.Equal(g, w) {
				got, want = g, w
			}
		}
		if got != want {
			return fmt.Sprintf("seed %d op %d (%d): Sim %v, math/rand %v", seed, i, op, got, want)
		}
	}
	return ""
}

// TestSimSourceMatchesMathRand: for seeds that exercise each branch of
// math/rand's seed reduction — zero (its 89482311 stand-in, and that value
// itself), negative, at and past 2³¹, the int64 extremes — a Sim's stream
// equals math/rand's over 10⁵ draws that mix Send's direct Float64 with
// every kind of draw the testbed makes through Sim.Rand.
func TestSimSourceMatchesMathRand(t *testing.T) {
	opr := rand.New(rand.NewSource(3))
	ops := make([]byte, 100_000)
	for i := range ops {
		ops[i] = byte(opr.Intn(255))
		if opr.Intn(20_000) == 0 {
			ops[i] = 255
		}
	}
	for _, seed := range []int64{0, 89482311, 1, 2, 7, -5, int32max, 1 << 31, 1 << 40, math.MinInt64, math.MaxInt64} {
		if msg := simStreamMismatch(seed, ops); msg != "" {
			t.Fatal(msg)
		}
	}
}

// FuzzSimSource: any seed, any sequence of draws and reseeds.
func FuzzSimSource(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 255, 0, 7})
	f.Add(int64(-5), []byte{255, 255, 4, 5})
	f.Add(int64(1)<<40, []byte{6, 6, 6, 0, 0, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		if msg := simStreamMismatch(seed, ops); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestNewRandMatchesMathRand: over the seeds TestSimSourceMatchesMathRand
// uses, one per branch of math/rand's seed reduction, NewRand's stream is
// rand.New(rand.NewSource(seed))'s through every kind of draw and a reseed.
func TestNewRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 89482311, 1, 2, 7, -5, int32max, 1 << 31, 1 << 40, math.MinInt64, math.MaxInt64} {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := range 20_000 {
			if i == 10_000 {
				got.Seed(seed ^ 1<<35)
				want.Seed(seed ^ 1<<35)
			}
			g := []any{got.Uint64(), got.Int63(), got.Float64(), got.Intn(i + 1), got.Int63n(int64(i)<<33 + 1)}
			w := []any{want.Uint64(), want.Int63(), want.Float64(), want.Intn(i + 1), want.Int63n(int64(i)<<33 + 1)}
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d draw %d: NewRand %v, math/rand %v", seed, i, g, w)
			}
			if i%1000 == 0 && !slices.Equal(got.Perm(i%24), want.Perm(i%24)) {
				t.Fatalf("seed %d draw %d: Perm differs", seed, i)
			}
		}
	}
}

// TestNewSimAllocs: a Sim holds its source instead of a *rand.Rand over a
// separately allocated one, and NewSim must not cost more for it. The
// bounds are NewSim's cost when it built rand.New(rand.NewSource(seed)):
// 6 objects and 15,504 B (go1.24, amd64).
func TestNewSimAllocs(t *testing.T) {
	const maxObjects, maxBytes = 6, 15_504
	var sink *Sim
	if objs := testing.AllocsPerRun(100, func() { sink = NewSim(7) }); objs > maxObjects {
		t.Errorf("NewSim allocates %.0f objects, want ≤ %d", objs, maxObjects)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		sink = NewSim(int64(i))
	}
	runtime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / n; bytes > maxBytes {
		t.Errorf("NewSim allocates %.0f B, want ≤ %d", bytes, maxBytes)
	}
	_ = sink
}
