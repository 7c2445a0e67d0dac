package apps

import (
	"time"

	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
)

// QualityLevels are the six HLS renditions of the paper's server
// ("6 different quality levels (0-5) varying from 144p to 720p"), as
// average bitrates in bps.
var QualityLevels = []float64{
	250e3, // 0: 144p
	450e3, // 1: 240p
	800e3, // 2: 360p
	1.5e6, // 3: 480p
	2.8e6, // 4: 720p
	4.5e6, // 5: 720p high
}

// SegmentDuration is the HLS segment length.
const SegmentDuration = 4 * time.Second

// VideoResult summarizes a streaming session.
type VideoResult struct {
	AvgLevel    float64
	Levels      []int
	Stalls      int
	StallTime   time.Duration
	Segments    int
	BufferAtEnd time.Duration
}

// Video is an hls.js-style ABR client over a transport connection: it
// fetches segments sequentially, estimates throughput per fetch, and picks
// the highest rendition sustainable at ~80% of the estimate, with a
// buffer cap. Segment buffering is what makes video "least sensitive to
// the choice of handover schemes" in Table 1.
type Video struct {
	sim  *netem.Sim
	conn *mptcp.Conn

	buffer      time.Duration // seconds of playable media
	bufferCap   time.Duration
	level       int
	estBps      float64
	levels      []int
	stalls      int
	stallTime   time.Duration
	playing     bool
	lastDrain   time.Duration
	fetchTarget uint64
	fetchStart  time.Duration
	end         time.Duration
	done        bool
}

// NewVideo attaches an ABR session to a connection.
func NewVideo(sim *netem.Sim, conn *mptcp.Conn) *Video {
	return &Video{
		sim:       sim,
		conn:      conn,
		bufferCap: 30 * time.Second,
		level:     0, // start conservative, as hls.js does
		estBps:    QualityLevels[1],
	}
}

// Run streams for dur and reports quality metrics.
func (v *Video) Run(dur time.Duration) VideoResult {
	v.end = v.sim.Now() + dur
	v.lastDrain = v.sim.Now()

	v.conn.OnDeliver = func(n int) { v.onBytes(n) }

	// Playback drain: every 100ms, consume buffer; count stalls.
	var drain *netem.Timer
	drain = v.sim.NewTimer(func() {
		if v.done {
			return
		}
		now := v.sim.Now()
		elapsed := now - v.lastDrain
		v.lastDrain = now
		if v.playing {
			if v.buffer >= elapsed {
				v.buffer -= elapsed
			} else {
				v.stallTime += elapsed - v.buffer
				v.buffer = 0
				v.playing = false
				v.stalls++
			}
		} else if v.buffer >= 2*SegmentDuration {
			v.playing = true // resume after rebuffering two segments
		} else {
			v.stallTime += elapsed
		}
		if now < v.end {
			drain.Reset(100 * time.Millisecond)
		}
	})
	drain.Reset(100 * time.Millisecond)

	v.fetchNext()
	v.sim.RunUntil(v.end)
	v.done = true

	res := VideoResult{
		Levels:      v.levels,
		Stalls:      v.stalls,
		StallTime:   v.stallTime,
		Segments:    len(v.levels),
		BufferAtEnd: v.buffer,
	}
	if len(v.levels) > 0 {
		sum := 0
		for _, l := range v.levels {
			sum += l
		}
		res.AvgLevel = float64(sum) / float64(len(v.levels))
	}
	return res
}

func (v *Video) fetchNext() {
	if v.done || v.sim.Now() >= v.end {
		return
	}
	if v.buffer >= v.bufferCap {
		// Buffer full: poll again shortly.
		v.sim.After(500*time.Millisecond, v.fetchNext)
		return
	}
	size := uint64(QualityLevels[v.level] * SegmentDuration.Seconds() / 8)
	v.fetchTarget = v.conn.Delivered() + size
	v.fetchStart = v.sim.Now()
	v.levels = append(v.levels, v.level)
	v.conn.Write(int(size))
}

// onBytes watches fetch completion.
func (v *Video) onBytes(int) {
	if v.done || v.fetchTarget == 0 || v.conn.Delivered() < v.fetchTarget {
		return
	}
	// Segment complete: update throughput estimate (EWMA) and buffer.
	fetchTime := v.sim.Now() - v.fetchStart
	size := QualityLevels[v.level] * SegmentDuration.Seconds() / 8
	if fetchTime > 0 {
		sample := size * 8 / fetchTime.Seconds()
		v.estBps = 0.7*v.estBps + 0.3*sample
	}
	v.buffer += SegmentDuration
	v.fetchTarget = 0
	v.pickLevel()
	v.fetchNext()
}

// pickLevel selects the highest rendition under 80% of the estimated
// throughput, stepping at most one level up at a time (hls.js-like).
func (v *Video) pickLevel() {
	target := 0
	for i, rate := range QualityLevels {
		if rate <= 0.8*v.estBps {
			target = i
		}
	}
	switch {
	case target > v.level:
		v.level++
	case target < v.level:
		v.level = target
	}
	// Low buffer: drop a level defensively.
	if v.buffer < SegmentDuration && v.level > 0 {
		v.level--
	}
}
