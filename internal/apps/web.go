package apps

import (
	"time"

	"cellbricks/internal/mptcp"
	"cellbricks/internal/netem"
)

// WebResult summarizes page loads.
type WebResult struct {
	LoadTimes []time.Duration
	AvgLoad   time.Duration
	Pages     int
}

// The synthetic page, calibrated so day/night load times land in the
// paper's Table 1 range.
const (
	// webPageBytes is the total page weight.
	webPageBytes = 850 * 1024
	// webRounds models request/response dependency chains (HTML -> CSS/JS
	// -> images): each round costs an application-level round trip before
	// its bytes flow.
	webRounds = 22
	// webGap is idle time between page loads.
	webGap = time.Second
)

// Web drives repeated page downloads over a transport connection and
// measures load time (Table 1's "Web: Avg. Load Time").
type Web struct {
	sim  *netem.Sim
	conn *mptcp.Conn

	loads   []time.Duration
	end     time.Duration
	done    bool
	target  uint64
	started time.Duration
	round   int
}

// NewWeb attaches a page-load workload to a connection.
func NewWeb(sim *netem.Sim, conn *mptcp.Conn) *Web {
	return &Web{sim: sim, conn: conn}
}

// Run loads pages back-to-back (with gaps) for dur.
func (w *Web) Run(dur time.Duration) WebResult {
	w.end = w.sim.Now() + dur
	w.conn.OnDeliver = func(n int) { w.onBytes() }
	w.startPage()
	w.sim.RunUntil(w.end)
	w.done = true

	res := WebResult{LoadTimes: w.loads, Pages: len(w.loads)}
	if len(w.loads) > 0 {
		var sum time.Duration
		for _, d := range w.loads {
			sum += d
		}
		res.AvgLoad = sum / time.Duration(len(w.loads))
	}
	return res
}

func (w *Web) startPage() {
	if w.done || w.sim.Now() >= w.end {
		return
	}
	w.started = w.sim.Now()
	w.round = 0
	w.nextRound()
}

// nextRound models the dependency chain: an application request round trip
// (approximated by the connection's SRTT, floor 30 ms), then the round's
// share of the page bytes.
func (w *Web) nextRound() {
	if w.done || w.sim.Now() >= w.end {
		return
	}
	rtt := w.conn.SRTT()
	if rtt < 30*time.Millisecond {
		rtt = 30 * time.Millisecond
	}
	w.round++
	const share = webPageBytes / webRounds
	w.sim.After(rtt, func() {
		if w.done {
			return
		}
		w.target = w.conn.Delivered() + uint64(share)
		w.conn.Write(share)
	})
}

func (w *Web) onBytes() {
	if w.done || w.target == 0 || w.conn.Delivered() < w.target {
		return
	}
	w.target = 0
	if w.round < webRounds {
		w.nextRound()
		return
	}
	// Page complete.
	w.loads = append(w.loads, w.sim.Now()-w.started)
	w.sim.After(webGap, w.startPage)
}
