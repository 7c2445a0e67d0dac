package netem

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// World runs one emulated world across K Sim shards in parallel while
// producing output byte-identical to a single-Sim run. It is a
// conservative parallel discrete-event simulator: endpoints are placed on
// shards, links whose endpoints share a shard behave exactly as in a
// plain Sim, and cross-shard links contribute their propagation delay to
// the world's lookahead
//
//	lookahead = min over cross-shard links of Link.Delay
//
// which bounds how far any shard may run ahead of the others without
// missing a remote packet: a packet sent at time T on a cross-shard link
// arrives no earlier than T+lookahead, because every other term of the
// link model (shaping, serialization, FIFO push-back, pause) only adds
// delay. The world therefore advances all shards in lock-step windows of
// that width, exchanging cross-shard packets through per-(src,dst)
// mailboxes drained at the window barrier and injected into the
// destination shard in the canonical (arrival, srcShard, send-order)
// order — the same order a single Sim would have fired them in.
//
// Determinism contract, and what it asks of the caller:
//
//   - Every shard Sim is seeded with the same base seed, so a world that
//     lives entirely inside one shard (whichever one) draws an identical
//     random stream regardless of K.
//   - Cross-shard links must be delay-deterministic: Delay > 0 and no
//     Jitter/Loss (both draw the sending shard's RNG, whose stream would
//     then depend on the placement). Connect panics otherwise.
//   - Workloads whose endpoints may land on different shards must not
//     share mutable state across those endpoints except through the
//     network; transports (mptcp.Conn etc.) are shard-local — place both
//     ends of a connection on the same shard.
//   - Simultaneous cross-shard arrivals at one endpoint from different
//     source shards are ordered by (srcShard, send order), which depends
//     on placement; workloads that want K-independent bytes stagger such
//     senders (see testbed.RunScale's heartbeat phases).
//
// Within a window the shards run on up to min(K, GOMAXPROCS) goroutines;
// each Sim remains single-goroutine, and mailbox row i is written only by
// shard i's goroutine, so the only synchronization is the barrier itself.
type World struct {
	shards    []*Sim
	homes     map[string]int
	lookahead time.Duration // min cross-shard Delay; 0 = no cross links yet
	workers   int
	now       time.Duration
	started   bool

	// mail[src][dst] is the window's cross-shard traffic from shard src to
	// shard dst, appended in send order by shard src's goroutine and
	// drained by the coordinator at the barrier. The rows are cut from one
	// allocation with mailPad headers before, between and after them, so
	// the row one shard appends to shares no cache line with another's.
	mail [][][]xpkt
	// scratch is the reusable merge buffer, so the steady-state exchange
	// allocates nothing.
	scratch []xpkt

	xshardLocal uint64 // cross-shard packets since the last metrics flush
}

// xpkt is a cross-shard packet parked in a mailbox between windows: the
// caller-visible Packet fields by value, plus its arrival time (already
// including every delay term of the sending side's link model).
type xpkt struct {
	at       time.Duration
	src, dst string
	size     int
	payload  any
}

// mailPad is how many unused mailbox headers keep the rows cacheLinePad
// bytes apart.
const (
	mailBoxSize = int(unsafe.Sizeof([]xpkt(nil)))
	mailPad     = (cacheLinePad + mailBoxSize - 1) / mailBoxSize
)

// remoteRoute marks a pathEntry as the local half of a cross-shard link;
// Send diverts admitted packets into the world's mailboxes instead of the
// local event queue.
type remoteRoute struct {
	w        *World
	srcShard int
	dstShard int
}

// ClampShards bounds a requested shard count to [1, GOMAXPROCS] — the
// policy knob for benchmarks and CLIs (more shards than cores only adds
// barrier overhead). Tests construct Worlds with explicit K instead:
// output is K-independent by construction, so K > NumCPU is legal, just
// not faster.
func ClampShards(k int) int {
	if k < 1 {
		return 1
	}
	if max := runtime.GOMAXPROCS(0); k > max {
		return max
	}
	return k
}

// NewWorld returns a world of k Sim shards (k < 1 selects 1), every shard
// seeded with the same base seed and using the process default scheduler.
func NewWorld(seed int64, k int) *World {
	if k < 1 {
		k = 1
	}
	w := &World{
		shards:  make([]*Sim, k),
		homes:   make(map[string]int),
		workers: ClampShards(k),
		mail:    make([][][]xpkt, k),
	}
	boxes := make([][]xpkt, mailPad+k*(k+mailPad))
	for i := range w.shards {
		w.shards[i] = NewSim(seed)
		w.shards[i].sharded = k > 1
		row := boxes[mailPad+i*(k+mailPad):]
		w.mail[i] = row[:k:k]
	}
	return w
}

// Shards reports the number of shards K.
func (w *World) Shards() int { return len(w.shards) }

// Shard returns shard i's simulator. Direct use is the point — schedule
// timers, connect same-shard links, build transports on it — but never
// run it (Step/Run/RunUntil) yourself; only the world may advance clocks.
func (w *World) Shard(i int) *Sim { return w.shards[i] }

// Now returns the world's virtual clock: the time every shard has been
// advanced to at the last barrier.
func (w *World) Now() time.Duration { return w.now }

// Place assigns an endpoint name to a shard. Placing the same name twice
// on different shards panics; cross-shard routing needs one home per name.
func (w *World) Place(name string, shard int) {
	if shard < 0 || shard >= len(w.shards) {
		panic(fmt.Sprintf("netem: Place(%q, %d): world has %d shards", name, shard, len(w.shards)))
	}
	if prev, ok := w.homes[name]; ok && prev != shard {
		panic(fmt.Sprintf("netem: Place(%q, %d): already placed on shard %d", name, shard, prev))
	}
	w.homes[name] = shard
}

// ShardFor returns the simulator of the shard name was placed on; it
// panics for unplaced names.
func (w *World) ShardFor(name string) *Sim {
	return w.shards[w.mustHome(name)]
}

func (w *World) mustHome(name string) int {
	s, ok := w.homes[name]
	if !ok {
		panic(fmt.Sprintf("netem: endpoint %q not placed on any shard", name))
	}
	return s
}

// Register installs the receive handler for a placed endpoint on its home
// shard.
func (w *World) Register(name string, fn func(*Packet)) {
	w.ShardFor(name).Register(name, fn)
}

// Connect installs a link between two placed endpoints. Same shard: a
// plain Sim.Connect. Different shards: the link is split into two
// per-direction halves (each shard owns the serialization/shaper state of
// its outbound direction — a shaper pointer set on the link is touched by
// exactly one shard), its Delay joins the lookahead bound, and the link
// must be delay-deterministic (Delay > 0, no Jitter, no Loss). The link
// struct is copied for cross-shard installs: mutate it afterwards (Down,
// PausedUntil) only for same-shard links.
func (w *World) Connect(a, b string, l *Link) {
	ha, hb := w.mustHome(a), w.mustHome(b)
	if ha == hb {
		w.shards[ha].Connect(a, b, l)
		return
	}
	if w.started {
		panic(fmt.Sprintf("netem: cross-shard Connect(%q, %q) after the world started running", a, b))
	}
	if l.Delay <= 0 {
		panic(fmt.Sprintf("netem: cross-shard link %q<->%q needs Delay > 0 (it is the conservative lookahead)", a, b))
	}
	if l.Jitter > 0 || l.Loss > 0 {
		panic(fmt.Sprintf("netem: cross-shard link %q<->%q must be delay-deterministic (no Jitter/Loss)", a, b))
	}
	if w.lookahead == 0 || l.Delay < w.lookahead {
		w.lookahead = l.Delay
	}
	la, lb := *l, *l
	w.shards[ha].connectRemote(a, b, &la, &remoteRoute{w: w, srcShard: ha, dstShard: hb})
	w.shards[hb].connectRemote(a, b, &lb, &remoteRoute{w: w, srcShard: hb, dstShard: ha})
}

// enqueue parks an admitted cross-shard packet in the sender's mailbox
// row until the window barrier. Called from the sending shard's goroutine
// only (row r.srcShard has a single writer).
func (w *World) enqueue(r *remoteRoute, pkt *Packet, arrival time.Duration) {
	box := &w.mail[r.srcShard][r.dstShard]
	*box = append(*box, xpkt{at: arrival, src: pkt.Src, dst: pkt.Dst, size: pkt.Size, payload: pkt.Payload})
}

// RunUntil advances every shard to exactly t in lock-step windows of the
// lookahead width, draining mailboxes at each barrier. With no
// cross-shard links the whole span is one window. Like Sim.RunUntil it is
// a no-op for t in the past.
func (w *World) RunUntil(t time.Duration) {
	w.started = true
	for w.now < t {
		end := t
		if w.lookahead > 0 && w.now+w.lookahead < t {
			end = w.now + w.lookahead
		}
		w.advanceAll(end)
		w.now = end
		w.exchange()
	}
	// Boundary drain: the final exchange may have injected arrivals at
	// exactly t, which a single Sim would have fired inside RunUntil(t).
	// Their handlers can only send further cross-shard packets arriving
	// after t (lookahead > 0), so one extra pass settles the boundary.
	w.advanceAll(t)
	w.exchange()
	w.flushMetrics()
}

// Pending reports the number of scheduled events across all shards.
func (w *World) Pending() int {
	n := 0
	for _, s := range w.shards {
		n += s.Pending()
	}
	return n
}

// advanceAll runs every shard to time t, in parallel when the world has
// both multiple shards and multiple workers. Shards share no state within
// a window (mailbox rows are single-writer), so worker scheduling cannot
// affect output.
func (w *World) advanceAll(t time.Duration) {
	n := w.workers
	if n > len(w.shards) {
		n = len(w.shards)
	}
	if n <= 1 {
		for _, s := range w.shards {
			s.RunUntil(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.shards) {
					return
				}
				w.shards[i].RunUntil(t)
			}
		}()
	}
	wg.Wait()
}

// exchange drains every mailbox into its destination shard. For each
// destination the packets from all source shards are merged in the
// canonical (arrival, srcShard, send order) order: rows are appended in
// srcShard order, each already in send order, so a stable sort on arrival
// alone realizes it. Runs on the coordinator goroutine with all shards
// parked at the barrier.
func (w *World) exchange() {
	for dst := range w.shards {
		buf := w.scratch[:0]
		for src := range w.shards {
			box := &w.mail[src][dst]
			if len(*box) == 0 {
				continue
			}
			buf = append(buf, *box...)
			clear(*box)
			*box = (*box)[:0]
		}
		if len(buf) == 0 {
			w.scratch = buf
			continue
		}
		slices.SortStableFunc(buf, func(a, b xpkt) int {
			switch {
			case a.at < b.at:
				return -1
			case a.at > b.at:
				return 1
			}
			return 0
		})
		ds := w.shards[dst]
		for i := range buf {
			ds.inject(buf[i].at, buf[i].src, buf[i].dst, buf[i].size, buf[i].payload)
		}
		w.xshardLocal += uint64(len(buf))
		clear(buf)
		w.scratch = buf[:0]
	}
}

// flushMetrics publishes the world-level view at the end of a RunUntil:
// sharded Sims suppress the per-Sim queue-depth gauge (last-flush-wins is
// meaningless across shards), so the world sets the merged depth, plus
// the cross-shard traffic counter.
func (w *World) flushMetrics() {
	if len(w.shards) == 1 {
		return // the lone shard's own flush is already the world view
	}
	mtr.queueDepth.Set(int64(w.Pending()))
	if w.xshardLocal > 0 {
		mtr.xshard.Add(w.xshardLocal)
		w.xshardLocal = 0
	}
}
