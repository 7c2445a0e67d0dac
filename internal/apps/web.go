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
	// webRoundBytes is one round's share of the page.
	webRoundBytes = webPageBytes / webRounds
)

// Web drives repeated page downloads over a transport connection and
// measures load time (Table 1's "Web: Avg. Load Time").
//
// Over plain TCP a CellBricks handover kills the connection, and the loader
// restarts at L7 instead (§5's incremental-deployment fallback): Drop when
// the address dies, Resume on a fresh connection once the UE has re-attached
// and redialled.
type Web struct {
	sim  *netem.Sim
	conn *mptcp.Conn

	loads   []time.Duration
	end     time.Duration
	done    bool
	target  uint64
	started time.Duration
	round   int // rounds requested of the current page; 0 between pages
	owed    int // what Drop found the in-flight round still owed
}

// NewWeb attaches a page-load workload to a connection.
func NewWeb(sim *netem.Sim, conn *mptcp.Conn) *Web {
	return &Web{sim: sim, conn: conn}
}

// Run loads pages back-to-back (with gaps) for dur.
func (w *Web) Run(dur time.Duration) WebResult {
	w.end = w.sim.Now() + dur
	w.bind(w.conn)
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

// bind makes conn the page's transport; an older connection's deliveries
// and pending requests are ignored from here on.
func (w *Web) bind(conn *mptcp.Conn) {
	w.conn = conn
	conn.OnDeliver = func(int) {
		if conn == w.conn {
			w.onBytes()
		}
	}
}

// Drop records what the connection still owed the page (the rest of an
// in-flight round) and kills it with its address.
func (w *Web) Drop() {
	w.owed = 0
	if w.target != 0 {
		w.owed = max(int(w.target)-int(w.conn.Delivered()), 0)
	}
	w.target = 0
	w.conn.AddrInvalidated()
}

// Resume moves the page onto conn, a new connection from the UE's new
// address, and asks for what Drop recorded: a ranged request for the rest
// of an interrupted round, or the whole round when the handover fell in
// the think time before its request (whose timer died with the old
// connection). Between pages the gap timer is still pending and nothing is
// re-requested.
func (w *Web) Resume(conn *mptcp.Conn) {
	w.bind(conn)
	switch {
	case w.owed > 0:
		w.request(w.owed)
	case w.round > 0:
		w.request(webRoundBytes)
	}
}

func (w *Web) startPage() {
	if w.done || w.sim.Now() >= w.end {
		return
	}
	w.started = w.sim.Now()
	w.nextRound()
}

// nextRound models the dependency chain: each round requests its share of
// the page bytes.
func (w *Web) nextRound() {
	if w.done || w.sim.Now() >= w.end {
		return
	}
	w.round++
	w.request(webRoundBytes)
}

// request asks for n bytes after an application request round trip
// (approximated by the connection's SRTT, floor 30 ms).
func (w *Web) request(n int) {
	conn := w.conn
	w.sim.After(max(conn.SRTT(), 30*time.Millisecond), func() {
		if w.done || conn != w.conn {
			return
		}
		w.target = conn.Delivered() + uint64(n)
		conn.Write(n)
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
	w.round = 0
	w.loads = append(w.loads, w.sim.Now()-w.started)
	w.sim.After(webGap, w.startPage)
}
