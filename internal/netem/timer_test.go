package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

const ms = time.Millisecond

// TestTimer pins Timer's contract case by case, on the timing wheel: what
// fires, when, in which order relative to one-shots, and where the clock
// ends up. Each script logs "name@now" lines; want is the full log.
func TestTimer(t *testing.T) {
	cases := []struct {
		name   string
		script func(s *Sim, tm *Timer, logf func(string))
		onFire func(tm *Timer, fired int) // optional: runs inside the callback
		want   []string
	}{
		{
			name: "reset later keeps one resident and fires once at the live deadline",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(10 * ms)
				s.After(5*ms, func() {
					tm.Reset(20 * ms)
					logf(fmt.Sprintf("pending=%d", s.sched.len()))
				})
				run(s)
			},
			want: []string{"pending=1@5ms", "timer@25ms"},
		},
		{
			name: "reset earlier orphans the resident; the orphan never moves the clock",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(100 * ms)
				s.After(50*ms, func() { logf("b") })
				tm.Reset(10 * ms)
				run(s)
				logf("end")
			},
			want: []string{"timer@10ms", "b@50ms", "end@50ms"},
		},
		{
			name: "stop then reset at the same instant takes a fresh seq",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(10 * ms)                    // (10ms, seq 1)
				s.After(10*ms, func() { logf("a") }) // (10ms, seq 2)
				tm.Stop()
				tm.Reset(10 * ms) // (10ms, seq 3): behind a, as After would be
				run(s)
			},
			want: []string{"a@10ms", "timer@10ms"},
		},
		{
			name: "reset from inside its own callback",
			onFire: func(tm *Timer, n int) {
				if n < 3 {
					tm.Reset(10 * ms)
				}
			},
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(10 * ms)
				run(s)
				logf(fmt.Sprintf("armed=%v", tm.Armed()))
			},
			want: []string{"timer@10ms", "timer@20ms", "timer@30ms", "armed=false@30ms"},
		},
		{
			name: "stop while resident: never fires, clock stays put",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(10 * ms)
				tm.Stop()
				logf(fmt.Sprintf("armed=%v pending=%d", tm.Armed(), s.sched.len()))
				run(s)
				logf(fmt.Sprintf("pending=%d", s.sched.len()))
			},
			want: []string{"armed=false pending=1@0s", "pending=0@0s"},
		},
		{
			name: "RunUntil bound between the stale and the live deadline",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(10 * ms)
				s.After(5*ms, func() { tm.Reset(20 * ms) }) // live: 25ms
				s.RunUntil(15 * ms)
				logf("bound")
				s.RunUntil(30 * ms)
				logf("end")
			},
			want: []string{"bound@15ms", "timer@25ms", "end@30ms"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/wheel", func(t *testing.T) {
			s := NewSim(1)
			var got []string
			logf := func(what string) { got = append(got, fmt.Sprintf("%s@%v", what, s.Now())) }
			var tm *Timer
			fired := 0
			tm = s.NewTimer(func() {
				logf("timer")
				if fired++; tc.onFire != nil {
					tc.onFire(tm, fired)
				}
			})
			tc.script(s, tm, logf)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("log = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTimerResetLaterZeroAlloc is the property the transport relies on: the
// per-ACK pattern (stop, re-arm for later, let the stale resident surface
// and re-queue itself) allocates nothing. A wheel slot owns no storage, so
// one cycle warms everything.
func TestTimerResetLaterZeroAlloc(t *testing.T) {
	s := NewSim(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	cycle := func() {
		for i := 0; i < 8; i++ {
			tm.Stop()
			tm.Reset(200 * ms)
			s.RunUntil(s.Now() + 50*ms)
		}
		s.RunUntil(s.Now() + 300*ms) // let it fire once per cycle
	}
	cycle()
	before := fired
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("re-arming allocates %.1f objects per cycle", allocs)
	}
	if fired == before {
		t.Fatal("timer never fired")
	}
}

// TestTimerResetEarlierZeroAlloc: a deadline that moves earlier on every
// Reset orphans the resident each time. The replacement comes from the
// Sim's event free list and the orphan goes back to it when it surfaces, so
// once one slab is out nothing is allocated.
func TestTimerResetEarlierZeroAlloc(t *testing.T) {
	s := NewSim(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	cycle := func() {
		for d := 200 * ms; d > 0; d -= 25 * ms {
			tm.Reset(d) // earlier than the resident from the second Reset on
		}
		s.RunUntil(s.Now() + 300*ms) // fires once, then every orphan surfaces
	}
	cycle()
	before := fired
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("re-arming earlier allocates %.1f objects per cycle", allocs)
	}
	if fired-before != 51 { // AllocsPerRun's warm-up call, then 50
		t.Fatalf("timer fired %d times in 51 cycles", fired-before)
	}
}

// TestNewTimerOneAllocation: in a warm Sim a new timer's resident comes off
// the event free list, so NewTimer + Reset allocates the Timer alone.
func TestNewTimerOneAllocation(t *testing.T) {
	s := NewSim(1)
	s.Connect("a", "b", &Link{Delay: ms})
	s.Register("b", func(*Packet) {})
	a, bEP := s.Endpoint("a"), s.Endpoint("b")
	// Every delivery event goes back to the free list once popped: 8 slabs
	// cover AllocsPerRun's warm-up call and the 100 measured ones.
	for range 8 * poolSlab {
		pkt := s.GetPacket()
		pkt.SrcEP, pkt.DstEP = a, bEP
		if !s.Send(pkt) {
			t.Fatal("send refused")
		}
	}
	run(s)
	fn := func() {}
	if allocs := testing.AllocsPerRun(100, func() { s.NewTimer(fn).Reset(ms) }); allocs != 1 {
		t.Fatalf("NewTimer + Reset allocates %.1f objects, want 1 (the Timer)", allocs)
	}
}

// refTimer is the reference a Timer must be indistinguishable from: every
// Reset cancels the pending Event and schedules a new one with After.
type refTimer struct {
	s  *Sim
	fn func()
	ev *Event
}

func (r *refTimer) Reset(d time.Duration) {
	r.ev.Cancel()
	r.ev = r.s.After(d, r.fn)
}

func (r *refTimer) Stop() { r.ev.Cancel() }

// runTimerOps decodes data into an interleaving of timer resets and stops,
// one-shot Afters, packet Sends, Steps and RunUntils — three bytes per op:
// opcode, timer index / scale, delta — runs it on one Sim and returns the
// firing trace. useTimer selects Timer or the After+Cancel reference.
func runTimerOps(useTimer bool, data []byte) []string {
	s := NewSim(1)
	var trace []string
	logf := func(what string) { trace = append(trace, fmt.Sprintf("%s@%v", what, s.Now())) }
	s.Connect("a", "b", &Link{Delay: 3 * ms})
	s.Register("b", func(*Packet) { logf("pkt") })

	const nTimers = 4
	type resetStopper interface {
		Reset(time.Duration)
		Stop()
	}
	var timers [nTimers]resetStopper
	var rearm [nTimers]time.Duration // re-arm from inside the callback when > 0
	for i := range timers {
		i := i
		fire := func() {
			logf(fmt.Sprintf("t%d", i))
			if d := rearm[i]; d > 0 {
				rearm[i] = 0
				timers[i].Reset(d)
			}
		}
		if useTimer {
			timers[i] = s.NewTimer(fire)
		} else {
			timers[i] = &refTimer{s: s, fn: fire}
		}
	}
	oneShots := 0
	for i := 0; i+2 < len(data); i += 3 {
		idx := int(data[i+1]) % nTimers
		// Deltas from sub-slot to beyond the wheel's L0 horizon, so
		// residents sit on every level when they go stale.
		d := time.Duration(data[i+2]) * 100 * time.Microsecond << (data[i+1] >> 2 % 8)
		switch data[i] % 8 {
		case 0, 1:
			timers[idx].Reset(d)
		case 2:
			timers[idx].Stop()
		case 3:
			oneShots++
			n := oneShots
			s.After(d, func() { logf(fmt.Sprintf("o%d", n)) })
		case 4:
			s.Send(&Packet{Src: "a", Dst: "b", Size: 100})
		case 5:
			s.Step()
		case 6:
			s.RunUntil(s.Now() + d)
			logf("until")
		case 7:
			rearm[idx] = d + 1
		}
	}
	run(s)
	logf("end")
	return trace
}

// checkTimerOrder runs one op stream with Timers and with the reference,
// fails on any difference, and returns the reference trace.
func checkTimerOrder(t *testing.T, data []byte) []string {
	t.Helper()
	want := runTimerOps(false, data)
	if got := runTimerOps(true, data); !reflect.DeepEqual(got, want) {
		t.Fatalf("Timer trace diverges from the At+Cancel reference:\n got %v\nwant %v", got, want)
	}
	return want
}

// TestTimerMatchesReferenceRandom is the seeded long-stream version of the
// fuzz target: thousands of ops per seed, so residents go stale, surface
// and re-queue many times over between other timers, one-shots and packets.
// The reference traces are pinned to the hash a heap-backed Sim rendered
// before the heap left the Sim.
func TestTimerMatchesReferenceRandom(t *testing.T) {
	var all []string
	for seed := int64(1); seed <= 20; seed++ {
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		all = append(all, checkTimerOrder(t, data)...)
	}
	const want = "f7ca8d1da2c6d5a6d7dae4a1fb99aa6f719bd12a3e3d7b592fe3c272b9cbbea6"
	if got := traceSHA(all); got != want || len(all) != 21330 {
		t.Fatalf("%d reference lines hash %s, want 21330 hashing %s", len(all), got, want)
	}
}

// FuzzTimerOrder asserts that random Reset/Stop/After/Send interleavings
// fire in the same order, at the same times, whether timers are Timers or
// the plain At+Cancel reference. The checked-in corpus
// under testdata/fuzz/FuzzTimerOrder runs as part of go test.
func FuzzTimerOrder(f *testing.F) {
	f.Add([]byte{0, 0, 100, 6, 0, 50, 0, 0, 100, 6, 0, 200})                 // reset later, run past both
	f.Add([]byte{0, 8, 200, 0, 0, 10, 6, 12, 255})                           // reset earlier: orphan
	f.Add([]byte{0, 1, 30, 3, 0, 30, 2, 1, 0, 0, 1, 30, 4, 0, 0, 6, 4, 90})  // stop+reset tie with a one-shot and a packet
	f.Add([]byte{7, 2, 40, 0, 2, 40, 7, 2, 9, 6, 16, 255, 5, 0, 0, 5, 0, 0}) // re-arm inside the callback
	f.Add([]byte{0, 31, 255, 2, 3, 0, 6, 28, 255, 0, 3, 1})                  // far-future resident stopped, then reused
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTimerOrder(t, data)
	})
}
