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

// mix is math/rand's seeding without the cooked table. math/rand fills the
// registers from its seed chain, x[n+1] = 48271·x[n] mod (2³¹−1) from the
// reduced seed x[0]: it discards x[1..20], then takes three links per
// register, x[21+3i], x[22+3i] and x[23+3i] for register i. Each link is
// x[0]·48271ⁿ mod (2³¹−1), so mix reads the powers from lagPow and computes
// every link on its own, a multiply and a reduction apiece, where walking
// the chain is 1,841 dependent steps.
func (r *lagSource) mix(seed int64) {
	r.tap = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range r.vec {
		p := lagPow[lagSkip+3*i:][:3]
		u := int64(x*p[0]%int32max) << 40
		u ^= int64(x*p[1]%int32max) << 20
		r.vec[i] = u ^ int64(x*p[2]%int32max)
	}
}

// lagSkip is the index of the first link of the seed chain that reaches a
// register.
const lagSkip = 21

// lagPow holds 48271ⁿ mod (2³¹−1) for every n the seeding reads: n up to
// lagSkip + 3·lagLen − 1 = 1,841, the chain's last link. Both factors of a
// link's product are below 2³¹, so the product fits in 62 bits.
var lagPow = func() (pow [lagSkip + 3*lagLen]uint64) {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * 48271 % int32max
	}
	return pow
}()

// NewRand returns a generator that yields, value for value, the stream
// rand.New(rand.NewSource(seed)) does, seeded as a Sim's is: without
// walking math/rand's seed chain.
func NewRand(seed int64) *rand.Rand {
	src := new(lagSource)
	src.Seed(seed)
	return rand.New(src)
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
