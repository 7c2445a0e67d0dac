package netem

import "math/rand"

// lagSource is math/rand's own generator — the additive lagged-Fibonacci
// source behind rand.NewSource — held by value in the Sim, so Send's loss
// and jitter draws are inlined, not calls through rand.Rand's Source
// interface. It yields, value for value, the stream rand.NewSource(seed)
// yields. Sim.Rand wraps the same state, so the testbed's draws and Send's
// share one stream in the order they are made.
type lagSource struct {
	// tap is the register the next draw adds from. math/rand also keeps a
	// feed index, the register the draw writes, but the two move in step,
	// lagLen-lagTap apart, so one index holds both; without the second the
	// Sim stays inside the allocation size class it had with a *rand.Rand.
	// It is a full word: as two int32 halves of one word, tap and feed made
	// each draw about twice as slow in a drive's CPU profile.
	tap int
	vec [lagLen]int64
}

const (
	lagLen   = 607 // math/rand's rngLen
	lagTap   = 273 // math/rand's rngTap
	lagMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// lagCooked is the table math/rand XORs into every seeded register. It is
// read back from math/rand itself, once per process: seed a source, draw
// one value per register, rewind the generator to its seeded state, and
// strip the seed's mix. Drawing writes every register exactly once, so the
// draws are the state, and each step is undone by one subtraction.
var lagCooked = func() (cooked [lagLen]int64) {
	src := rand.NewSource(0).(rand.Source64)
	var vec [lagLen]int64
	for i := range lagLen { // draw i writes register feed = lagLen-lagTap-1-i
		vec[(2*lagLen-lagTap-1-i)%lagLen] = int64(src.Uint64())
	}
	for i := lagLen - 1; i >= 0; i-- { // undo draw i, tap register lagLen-1-i
		vec[(2*lagLen-lagTap-1-i)%lagLen] -= vec[lagLen-1-i]
	}
	var mix lagSource
	mix.mix(0)
	for i := range cooked {
		cooked[i] = vec[i] ^ mix.vec[i]
	}
	return cooked
}()

// Seed sets the state rand.NewSource(seed) starts from, in place.
func (r *lagSource) Seed(seed int64) {
	r.mix(seed)
	for i := range r.vec {
		r.vec[i] ^= lagCooked[i]
	}
}

// mix is math/rand's seeding without the cooked table: the registers are
// the seedrand chain from the reduced seed, three links per register.
func (r *lagSource) mix(seed int64) {
	r.tap = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < lagLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			r.vec[i] = u ^ int64(x)
		}
	}
}

// seedrand is x[n+1] = 48271 * x[n] mod (2**31 - 1), math/rand's seed chain.
func seedrand(x int32) int32 {
	const a, q, rem = 48271, 44488, 3399
	x = a*(x%q) - rem*(x/q)
	if x < 0 {
		x += int32max
	}
	return x
}

// Uint64 steps the generator: rand.Source64.
func (r *lagSource) Uint64() uint64 {
	tap := r.tap - 1
	if tap < 0 {
		tap += lagLen
	}
	r.tap = tap
	feed := tap + lagLen - lagTap
	if feed >= lagLen {
		feed -= lagLen
	}
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	return uint64(x)
}

// Int63 is rand.Source's draw.
func (r *lagSource) Int63() int64 { return int64(r.Uint64() & lagMask) }

// Float64 is rand.Rand.Float64 over this source, resample included.
func (r *lagSource) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
