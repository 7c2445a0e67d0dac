package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellbricks/internal/obs"
)

// --- framing edge cases ---

// readOne reads one frame into buffers of its own.
func readOne(r io.Reader) (byte, obs.SpanContext, []byte, error) {
	return readFrame(r, new([4]byte), nil)
}

func TestReadFrameZeroLength(t *testing.T) {
	// A zero length prefix is never legal (the type byte alone costs 1):
	// it must fail loudly, not loop or return an empty frame.
	if _, _, _, err := readOne(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("zero-length frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, _, err := readOne(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	if _, _, _, err := readOne(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated header: expected error")
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeNAS, obs.SpanContext{}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-3]
	if _, _, _, err := readOne(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated payload: expected error")
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeNAS, obs.SpanContext{}, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write leaked %d bytes onto the stream", buf.Len())
	}
}

// --- handler panic isolation ---

func TestHandlerPanicClosesOneConn(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		if mt == TypeNAS {
			panic("handler bug")
		}
		return TypeAIA, p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	redials, conn := mtr.redials.Value(), c.conn

	// The panicking request gets a TypeError reply, on a connection the
	// client keeps...
	_, _, err = c.Call(TypeNAS, []byte("boom"))
	if err == nil || !strings.Contains(err.Error(), "handler panic") {
		t.Fatalf("err = %v, want handler panic error", err)
	}
	if c.conn != conn {
		t.Fatal("an error reply must not break the connection")
	}
	s.mu.Lock()
	panics := s.panics
	s.mu.Unlock()
	if panics != 1 {
		t.Fatalf("%d handler panics recovered, want 1", panics)
	}
	// ...and the server closes that one connection but survives: the call
	// that finds it closed fails and abandons it, the one after redials.
	if _, _, err := c.Call(TypeAIR, []byte("dead conn")); err == nil || c.conn != nil {
		t.Fatalf("call on the connection the server closed must fail and abandon it: %v", err)
	}
	rt, reply, err := c.Call(TypeAIR, []byte("alive"))
	if err != nil {
		t.Fatalf("call after panic: %v", err)
	}
	if rt != TypeAIA || string(reply) != "alive" {
		t.Fatalf("reply = %d %q", rt, reply)
	}
	if got := mtr.redials.Value() - redials; got != 1 {
		t.Fatalf("a handler panic must cost exactly one connection, %d redials", got)
	}
}

// --- idle timeout + transparent redial ---

func TestIdleTimeoutAndRedial(t *testing.T) {
	s, err := NewServerOptions("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		return TypeNASReply, p, nil
	}, ServerOptions{IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	redials := mtr.redials.Value()
	if _, _, err := c.Call(TypeNAS, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Let the server reap the idle connection, then call again: the call
	// must mark the dead conn broken rather than desync, and the one after
	// it redials. (A Pool hides this one failed call behind its resend:
	// TestPoolRedialsConnectionClosedWhileIdle.)
	time.Sleep(200 * time.Millisecond)
	if _, _, err := c.Call(TypeNAS, []byte("lost")); err == nil || c.conn != nil {
		t.Fatalf("call on the reaped connection must fail and abandon it: %v", err)
	}
	rt, reply, err := c.Call(TypeNAS, []byte("two"))
	if err != nil {
		t.Fatalf("call after idle reap: %v", err)
	}
	if rt != TypeNASReply || string(reply) != "two" {
		t.Fatalf("reply = %d %q", rt, reply)
	}
	if got := mtr.redials.Value() - redials; got != 1 {
		t.Fatalf("an idle reap must cost exactly one connection, %d redials", got)
	}
}

// --- typed retry-after ---

func TestRetryAfterSurfacesTyped(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		return 0, nil, &RetryAfterError{After: 250 * time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.conn

	_, _, err = c.Call(TypeSAPAuthRequest, nil)
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("err = %v, want *RetryAfterError", err)
	}
	if ra.After != 250*time.Millisecond {
		t.Fatalf("After = %v, want 250ms", ra.After)
	}
	// A shed reply is a completed exchange: the connection stays healthy.
	if c.conn != conn {
		t.Fatal("shed reply must not break the conn")
	}
}

// --- deterministic fault injection on the dialer ---

func TestCallRecoversFromTruncatedWrite(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		return TypeNASReply, p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// First dial yields a conn that truncates its first write (and lies
	// about it — the peer sees a frame that never completes); subsequent
	// dials are clean. The call on the poisoned conn must fail and abandon
	// it — the server idles the half frame out — and the next call must
	// succeed on a fresh dial.
	var dials atomic.Int64
	c, err := DialOptions(s.Addr(), Options{
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return newFaultyConn(conn, 7, 0, 1.0), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	redials := mtr.redials.Value()

	if _, _, err := c.Call(TypeNAS, []byte("into the fire")); err == nil || c.conn != nil {
		t.Fatalf("call over the truncating conn must fail and abandon it: %v", err)
	}
	rt, reply, err := c.Call(TypeNAS, []byte("through the fire"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if rt != TypeNASReply || string(reply) != "through the fire" {
		t.Fatalf("reply = %d %q", rt, reply)
	}
	if got := mtr.redials.Value() - redials; got != 1 {
		t.Fatalf("expected the truncated conn to be redialled once, %d redials", got)
	}
}

func TestCallSurvivesAdversarialNASDropAndTruncation(t *testing.T) {
	// The byzantine bTelco's NAS treatment as seen from the wire: the
	// server silently swallows the first two NAS requests (replying only
	// long after the client's deadline), and the first redial lands on a
	// conn that truncates its write mid-frame. Each failed call must break
	// its conn, and a caller that re-sends (as ue.AttachFSM does) must get
	// through on a fresh dial — never desync into reading a stale late
	// reply as the answer to a new request.
	var calls atomic.Int64
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		if mt == TypeNAS && calls.Add(1) <= 2 {
			time.Sleep(300 * time.Millisecond) // well past CallTimeout: a drop
		}
		return TypeNASReply, p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var dials atomic.Int64
	c, err := DialOptions(s.Addr(), Options{
		CallTimeout: 50 * time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 2 {
				return newFaultyConn(conn, 11, 0, 1.0), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	redials := mtr.redials.Value()
	var failed uint64
	for ; ; failed++ {
		req := fmt.Sprintf("attach req %d", failed)
		rt, reply, err := c.Call(TypeNAS, []byte(req))
		if err == nil {
			if rt != TypeNASReply || string(reply) != req {
				t.Fatalf("reply = %d %q, want echoed %q", rt, reply, req)
			}
			break
		}
		if c.conn != nil {
			t.Fatalf("failed call %d kept its connection: %v", failed, err)
		}
		if failed == 6 {
			t.Fatalf("no call got through the drop+truncation storm: %v", err)
		}
	}
	// Two drops and one truncation; every one cost its connection.
	if got := mtr.redials.Value() - redials; failed != 3 || got != failed {
		t.Fatalf("%d failed calls, want 3, each breaking one conn and redialled once; %d redials", failed, got)
	}
	// A fresh call on the healed client must work first try.
	if _, _, err := c.Call(TypeNAS, []byte("steady")); err != nil {
		t.Fatalf("steady-state call after storm: %v", err)
	}
}

func TestCallTimeoutBreaksConn(t *testing.T) {
	block := make(chan struct{})
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		<-block
		return TypeNASReply, p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); s.Close() }()

	c, err := DialOptions(s.Addr(), Options{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Call(TypeNAS, []byte("stuck")); err == nil {
		t.Fatal("expected deadline error")
	}
	if c.conn != nil {
		t.Fatal("timed-out conn must be broken")
	}
}
