package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cellbricks/internal/obs"
)

func echoServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", func(mt byte, p []byte) (byte, []byte, error) {
		switch mt {
		case TypeNAS:
			return TypeNASReply, p, nil
		case TypeAIR:
			return TypeAIA, append([]byte("aia:"), p...), nil
		default:
			return 0, nil, fmt.Errorf("boom %d", mt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestCallRoundTrip(t *testing.T) {
	_, c := echoServer(t)
	rt, reply, err := c.Call(TypeNAS, []byte("attach"))
	if err != nil {
		t.Fatal(err)
	}
	if rt != TypeNASReply || string(reply) != "attach" {
		t.Fatalf("reply = %d %q", rt, reply)
	}
}

func TestCallDifferentTypes(t *testing.T) {
	_, c := echoServer(t)
	rt, reply, err := c.Call(TypeAIR, []byte("imsi"))
	if err != nil {
		t.Fatal(err)
	}
	if rt != TypeAIA || string(reply) != "aia:imsi" {
		t.Fatalf("reply = %d %q", rt, reply)
	}
}

func TestCallServerError(t *testing.T) {
	_, c := echoServer(t)
	_, _, err := c.Call(TypeULR, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want remote boom", err)
	}
	// Connection survives an application error.
	if _, _, err := c.Call(TypeNAS, []byte("ok")); err != nil {
		t.Fatalf("call after error: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, c := echoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("msg-%d", i))
			_, reply, err := c.Call(TypeNAS, payload)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(reply, payload) {
				errs <- fmt.Errorf("cross-talk: sent %q got %q", payload, reply)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMultipleClients(t *testing.T) {
	s, _ := echoServer(t)
	for i := 0; i < 5; i++ {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, reply, err := c.Call(TypeNAS, []byte{byte(i)}); err != nil || reply[0] != byte(i) {
			t.Fatalf("client %d: %v %v", i, reply, err)
		}
		c.Close()
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeNAS, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	mt, p, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != TypeNAS || string(p) != "payload" {
		t.Fatalf("frame = %d %q", mt, p)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeReportAck, nil); err != nil {
		t.Fatal(err)
	}
	mt, p, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != TypeReportAck || len(p) != 0 {
		t.Fatalf("frame = %d %q", mt, p)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeNAS, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// A malicious length prefix is rejected on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, TypeNAS})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeNAS, []byte("hello"))
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestCallAfterClose(t *testing.T) {
	_, c := echoServer(t)
	c.Close()
	if _, _, err := c.Call(TypeNAS, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, c := echoServer(t)
	s.Close()
	if _, _, err := c.Call(TypeNAS, []byte("x")); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

// readCountingConn counts the Read calls that delivered bytes.
type readCountingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

type readCountingListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l readCountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return readCountingConn{conn, l.reads}, nil
}

// A frame costs one read(2) at each end, not one for its length prefix and
// one for its body: both ends read through a per-connection buffer. Frames
// past the buffer still arrive whole.
func TestOneReadPerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var serverReads, clientReads atomic.Int64
	s := serve(readCountingListener{ln, &serverReads}, func(_ obs.SpanContext, _ byte, p []byte) (byte, []byte, error) {
		return TypeNASReply, p, nil
	}, ServerOptions{})
	defer s.Close()
	c, err := DialOptions(s.Addr(), Options{Dialer: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return readCountingConn{conn, &clientReads}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sizes := []int{0, 1, 9, 400, 1500, readBuf - 5} // the last frame fills the buffer exactly
	for _, n := range sizes {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		if _, reply, err := c.Call(TypeNAS, payload); err != nil || !bytes.Equal(reply, payload) {
			t.Fatalf("%d-byte payload: reply of %d bytes, %v", n, len(reply), err)
		}
	}
	if got := serverReads.Load(); got != int64(len(sizes)) {
		t.Errorf("server read %d times for %d request frames", got, len(sizes))
	}
	if got := clientReads.Load(); got != int64(len(sizes)) {
		t.Errorf("client read %d times for %d reply frames", got, len(sizes))
	}
	if c.replied != readBuf {
		t.Errorf("replied = %d after a %d-byte reply frame: it must count bytes off the socket", c.replied, readBuf)
	}

	big := bytes.Repeat([]byte{0xB1}, 20*readBuf)
	if _, reply, err := c.Call(TypeNAS, big); err != nil || !bytes.Equal(reply, big) {
		t.Fatalf("frame past the read buffer: reply of %d bytes, %v", len(reply), err)
	}
	if _, reply, err := c.Call(TypeNAS, []byte("after")); err != nil || string(reply) != "after" {
		t.Fatalf("small frame after a large one: %q, %v", reply, err)
	}
}
