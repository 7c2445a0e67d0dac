package netem

import (
	"math"
	"time"
)

// DayNightPolicy models the bimodal operator rate limiting the paper
// measures on T-Mobile (Appendix A): an aggressive daytime cap that is
// "switched off" around 00:30, after which throughput is limited only by a
// highly variable shared-capacity process.
//
// Virtual time 0 corresponds to ClockStart within a 24h day.
//
// Rate memoizes its last answer in the policy value, so a value must be
// owned by one Sim: give each link its own copy (as
// mobility.Operator.CellularLink does) rather than sharing a pointer
// between concurrently running simulations. The memo assumes the exported
// fields are set before the first Rate call; copy a policy before it is
// queried, not after.
type DayNightPolicy struct {
	ClockStart time.Duration // time-of-day at sim time 0 (e.g. 13h * time.Hour)
	SwitchOn   time.Duration // daytime policing begins (e.g. 6h)
	SwitchOff  time.Duration // daytime policing ends   (e.g. 30m past midnight)

	DayRateBps float64 // hard daytime cap

	// Night capacity: lognormal-ish fluctuation around NightMeanBps,
	// regenerated every NightEpoch to model background load churn.
	NightMeanBps float64
	NightSigma   float64 // log-domain sigma
	NightPeakBps float64 // clamp
	NightEpoch   time.Duration

	seed int64

	// Rate memo: the last answer and the span [memoFrom, memoTo) of virtual
	// time it holds for, which ends at the next night-epoch boundary or
	// day/night switch. The shaper asks on every packet; the answer
	// changes at most once per NightEpoch. An empty span is no memo.
	memoFrom, memoTo time.Duration
	memoRate         float64
}

// NewDefaultDayNightPolicy returns a policy calibrated to Appendix A:
// day average ~1.0-1.2 Mbps with tiny variance, night mean ~15 Mbps with
// heavy variance and peaks ~52 Mbps, switchover at 00:30.
func NewDefaultDayNightPolicy(seed int64) *DayNightPolicy {
	return &DayNightPolicy{
		ClockStart:   13 * time.Hour,
		SwitchOn:     6 * time.Hour,
		SwitchOff:    30 * time.Minute,
		DayRateBps:   1.20e6,
		NightMeanBps: 20e6,
		NightSigma:   0.80,
		NightPeakBps: 52.5e6,
		NightEpoch:   12 * time.Second,
		seed:         seed,
	}
}

// TimeOfDay maps virtual time to time within a 24h day.
func (p *DayNightPolicy) TimeOfDay(t time.Duration) time.Duration {
	day := 24 * time.Hour
	tod := (p.ClockStart + t) % day
	if tod < 0 {
		tod += day
	}
	return tod
}

// IsDay reports whether daytime policing applies at virtual time t.
func (p *DayNightPolicy) IsDay(t time.Duration) bool {
	tod := p.TimeOfDay(t)
	// Daytime window: [SwitchOn, 24h) plus [0, SwitchOff).
	return tod >= p.SwitchOn || tod < p.SwitchOff
}

// Rate is a RateFunc: the policed rate in bits/second at virtual time t.
// Inside the span of its last answer it answers from the memo.
func (p *DayNightPolicy) Rate(t time.Duration) float64 {
	if p.memoFrom <= t && t < p.memoTo {
		return p.memoRate
	}
	const day = 24 * time.Hour
	var rate float64
	var from, to time.Duration
	tod := p.TimeOfDay(t)
	switch {
	case !p.IsDay(t):
		// Night runs [SwitchOff, SwitchOn) in time of day, and the draw
		// holds within one epoch.
		rate = p.nightRate(t)
		if t < 0 {
			return rate // t/NightEpoch truncates toward zero: no memo
		}
		lo := t / p.NightEpoch * p.NightEpoch
		from, to = max(t-(tod-p.SwitchOff), lo), min(t+(p.SwitchOn-tod), lo+p.NightEpoch)
	case tod >= p.SwitchOn:
		rate = p.DayRateBps
		from, to = t-(tod-p.SwitchOn), t+(day-tod+p.SwitchOff)
	default: // tod < SwitchOff: the day began at SwitchOn yesterday
		rate = p.DayRateBps
		from, to = t-(tod+day-p.SwitchOn), t+(p.SwitchOff-tod)
	}
	p.memoFrom, p.memoTo, p.memoRate = from, to, rate
	return rate
}

// nightRate draws a deterministic pseudo-random capacity per epoch using a
// splitmix-style hash, so the value is a pure function of (seed, epoch) and
// reproducible regardless of query order.
func (p *DayNightPolicy) nightRate(t time.Duration) float64 {
	epoch := int64(t / p.NightEpoch)
	u := hash2(uint64(p.seed), uint64(epoch))
	// Box-Muller from two uniform draws derived from the hash.
	u1 := float64(u>>11) / float64(1<<53)
	u2 := float64(hash2(u, 0x9e3779b97f4a7c15)>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	// Lognormal with median chosen so the mean lands on NightMeanBps:
	// mean = median * exp(sigma^2/2).
	median := p.NightMeanBps / math.Exp(p.NightSigma*p.NightSigma/2)
	r := median * math.Exp(p.NightSigma*z)
	if r > p.NightPeakBps {
		r = p.NightPeakBps
	}
	if r < 0.2e6 {
		r = 0.2e6
	}
	return r
}

func hash2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ConstantRate returns a RateFunc with a fixed rate in bits/second.
func ConstantRate(bps float64) RateFunc {
	return func(time.Duration) float64 { return bps }
}
