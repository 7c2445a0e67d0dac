package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellbricks/internal/obs"
)

func echoHandler(mt byte, p []byte) (byte, []byte, error) { return TypeNASReply, p, nil }

// waitFor polls cond until it holds: server-side connection teardown is
// observable only after the peer's serve goroutine has noticed the close.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// openConns is how many accepted connections s is still serving.
func openConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func poolIdle(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// newEchoPool starts an echo server and a pool on it.
func newEchoPool(tb testing.TB) (*Server, *Pool) {
	tb.Helper()
	s, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	p, err := DialPool(s.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return s, p
}

func TestPoolSequentialCallsReuseOneConnection(t *testing.T) {
	dials, reuses := mtr.poolDials.Value(), mtr.poolReuses.Value()
	s, p := newEchoPool(t)
	for i := 0; i < 500; i++ {
		rt, reply, err := p.Call(TypeNAS, obs.SpanContext{}, []byte("ping"))
		if err != nil || rt != TypeNASReply || string(reply) != "ping" {
			t.Fatalf("call %d: %d %q %v", i, rt, reply, err)
		}
	}
	if n := openConns(s); n != 1 {
		t.Fatalf("server holds %d connections after 500 sequential calls, want 1", n)
	}
	if d, r := mtr.poolDials.Value()-dials, mtr.poolReuses.Value()-reuses; d != 1 || r != 500 {
		t.Fatalf("wire_pool_dials_total moved %d, wire_pool_reuses_total %d; want 1 and 500", d, r)
	}
}

// N callers in flight at once each hold their own connection (a shared
// Client would serialize them and this handler would never release), and
// only poolMaxIdle of those connections outlive the burst.
func TestPoolConcurrentCallsGetOneConnectionEach(t *testing.T) {
	const n = 2 * poolMaxIdle
	var inFlight atomic.Int32
	release := make(chan struct{})
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		if inFlight.Add(1) == n {
			close(release)
		}
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			return 0, nil, errors.New("calls were serialized")
		}
		return TypeNASReply, p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dials := mtr.poolDials.Value()
	p, err := DialPool(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := p.Call(TypeNAS, obs.SpanContext{}, []byte("x")); err != nil {
				t.Errorf("concurrent call: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := mtr.poolDials.Value() - dials; got != n {
		t.Fatalf("%d concurrent callers dialled %d connections, want one each", n, got)
	}
	if got := poolIdle(p); got != poolMaxIdle {
		t.Fatalf("%d idle connections after the burst, want the cap %d", got, poolMaxIdle)
	}
	waitFor(t, "surplus connections to close", func() bool { return openConns(s) == poolMaxIdle })
}

// A shelved connection the peer closed — here by restarting the server on
// the same address, then by its idle timeout — costs the next call exactly
// one redial, not a failure.
func TestPoolRedialsConnectionClosedWhileIdle(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	p, err := DialPool(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	call := func(what string, wantRedials uint64) {
		t.Helper()
		redials, dials := mtr.redials.Value(), mtr.poolDials.Value()
		if _, reply, err := p.Call(TypeNAS, obs.SpanContext{}, []byte(what)); err != nil || string(reply) != what {
			t.Fatalf("call %s: %q %v", what, reply, err)
		}
		if got := mtr.redials.Value() - redials; got != wantRedials {
			t.Fatalf("call %s: %d redials, want %d", what, got, wantRedials)
		}
		if got := mtr.poolDials.Value() - dials; got != 0 {
			t.Fatalf("call %s: pool dialled %d new connections, want the shelved one redialled", what, got)
		}
	}
	call("warm", 0)

	s.Close()
	s, err = NewServerOptions(addr, echoHandler, ServerOptions{IdleTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	call("after restart", 1)

	waitFor(t, "the idle timeout to reap the connection", func() bool { return openConns(s) == 0 })
	call("after idle timeout", 1)
	call("warm again", 0)
}

// Once a reply byte has arrived the request may have been served: the pool
// must fail the call rather than send it a second time.
func TestPoolNeverResendsAfterReplyByte(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var requests atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					if _, _, _, err := readOne(conn); err != nil {
						return
					}
					if requests.Add(1) == 1 {
						WriteFrame(conn, TypeNASReply, obs.SpanContext{}, []byte("ok"))
						continue
					}
					conn.Write([]byte{0, 0}) // half a length prefix, then hang up
					return
				}
			}()
		}
	}()
	p, err := DialPool(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.Call(TypeNAS, obs.SpanContext{}, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Call(TypeNAS, obs.SpanContext{}, []byte("second")); err == nil {
		t.Fatal("call whose reply was cut short succeeded")
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (the cut-short one must not be resent)", got)
	}
	if got := poolIdle(p); got != 0 {
		t.Fatalf("broken connection was shelved (%d idle)", got)
	}
}

func TestPoolCloseDrainsAndRefusesReturns(t *testing.T) {
	s, p := newEchoPool(t)
	onLoan, _, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Call(TypeNAS, obs.SpanContext{}, []byte("second conn")); err != nil {
		t.Fatal(err)
	}
	if n := openConns(s); n != 2 {
		t.Fatalf("server holds %d connections, want 2", n)
	}
	p.Close()
	p.put(onLoan)
	if got := poolIdle(p); got != 0 {
		t.Fatalf("client returned after Close was shelved (%d idle)", got)
	}
	if _, _, err := onLoan.Call(TypeNAS, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("client returned after Close is still open: err = %v", err)
	}
	waitFor(t, "the server's connection set to drain", func() bool { return openConns(s) == 0 })
	if _, _, err := p.Call(TypeNAS, obs.SpanContext{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close: err = %v, want ErrClosed", err)
	}
}

// BenchmarkPoolBorrowReturn is the pool's own overhead per call, without
// the exchange: it must not allocate.
func BenchmarkPoolBorrowReturn(b *testing.B) {
	_, p := newEchoPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _, err := p.get()
		if err != nil {
			b.Fatal(err)
		}
		p.put(c)
	}
}

func TestPoolBorrowReturnDoesNotAllocate(t *testing.T) {
	_, p := newEchoPool(t)
	allocs := testing.AllocsPerRun(1000, func() {
		c, _, _ := p.get()
		p.put(c)
	})
	if allocs != 0 {
		t.Fatalf("borrow+return allocates %.1f times per op, want 0", allocs)
	}
}
