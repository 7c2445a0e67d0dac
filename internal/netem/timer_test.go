package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

const ms = time.Millisecond

// TestTimer pins Timer's contract case by case, on both schedulers: what
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
					logf(fmt.Sprintf("pending=%d", s.Pending()))
				})
				s.Run()
			},
			want: []string{"pending=1@5ms", "timer@25ms"},
		},
		{
			name: "reset earlier orphans the resident; the orphan never moves the clock",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(100 * ms)
				s.After(50*ms, func() { logf("b") })
				tm.Reset(10 * ms)
				s.Run()
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
				s.Run()
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
				s.Run()
				logf(fmt.Sprintf("armed=%v", tm.Armed()))
			},
			want: []string{"timer@10ms", "timer@20ms", "timer@30ms", "armed=false@30ms"},
		},
		{
			name: "stop while resident: never fires, clock stays put",
			script: func(s *Sim, tm *Timer, logf func(string)) {
				tm.Reset(10 * ms)
				tm.Stop()
				logf(fmt.Sprintf("armed=%v pending=%d", tm.Armed(), s.Pending()))
				s.Run()
				logf(fmt.Sprintf("pending=%d", s.Pending()))
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
		for _, sk := range schedulerKinds {
			t.Run(tc.name+"/"+sk.name, func(t *testing.T) {
				s := NewSimScheduler(1, sk.kind)
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
}

// TestTimerResetLaterZeroAlloc is the property the transport relies on: the
// per-ACK pattern (stop, re-arm for later, let the stale resident surface
// and re-queue itself) allocates nothing.
func TestTimerResetLaterZeroAlloc(t *testing.T) {
	for _, sk := range schedulerKinds {
		s := NewSimScheduler(1, sk.kind)
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
		for i := 0; i < 64; i++ { // warm the wheel's slot storage
			cycle()
		}
		before := fired
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Fatalf("%s: re-arming allocates %.1f objects per cycle", sk.name, allocs)
		}
		if fired == before {
			t.Fatalf("%s: timer never fired", sk.name)
		}
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
func runTimerOps(kind SchedulerKind, useTimer bool, data []byte) []string {
	s := NewSimScheduler(1, kind)
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
	s.Run()
	logf("end")
	return trace
}

// checkTimerOrder runs one op stream four ways — Timer and reference, wheel
// and heap — and fails on any trace that differs from the heap reference.
func checkTimerOrder(t *testing.T, data []byte) {
	t.Helper()
	want := runTimerOps(SchedulerHeap, false, data)
	for _, sk := range schedulerKinds {
		if got := runTimerOps(sk.kind, true, data); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s Timer trace diverges from the At+Cancel reference:\n got %v\nwant %v", sk.name, got, want)
		}
	}
	if got := runTimerOps(SchedulerWheel, false, data); !reflect.DeepEqual(got, want) {
		t.Fatalf("wheel reference trace diverges from heap:\n got %v\nwant %v", got, want)
	}
}

// TestTimerMatchesReferenceRandom is the seeded long-stream version of the
// fuzz target: thousands of ops per seed, so residents go stale, surface
// and re-queue many times over between other timers, one-shots and packets.
func TestTimerMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		checkTimerOrder(t, data)
	}
}

// FuzzTimerOrder asserts that random Reset/Stop/After/Send interleavings
// fire in the same order, at the same times, whether timers are Timers or
// the plain At+Cancel reference, on both schedulers. The checked-in corpus
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
