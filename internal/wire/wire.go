// Package wire is the length-prefixed framing and minimal request/response
// RPC used between the real-socket components of the testbed: UE <-> AGW
// (standing in for the radio + S1 interface) and AGW <-> brokerd /
// SubscriberDB (the S6A-like northbound). Stdlib only.
//
// Frame layout: length(4, big-endian, covers type+payload) || type(1) ||
// payload. Each Call writes one frame and reads one frame; the server
// serves calls on a connection strictly in order, which matches the
// signalling protocols modelled here. A frame is one write(2) and, through
// the read buffer each end keeps per connection, one read(2).
//
// Robustness: a Call that fails mid-frame leaves the TCP stream in an
// undefined framing state, so the client marks the connection broken and
// transparently redials on the next call instead of desyncing. A Call is
// one exchange and is never retried here: retrying is end to end, in
// ue.AttachFSM (DESIGN.md §2.4). Options adds a per-call deadline;
// ServerOptions an idle-connection timeout. A degraded server can shed
// load with a typed retry-after reply (TypeRetryAfter / RetryAfterError)
// that survives the round trip. Pool keeps a caller's connections to one
// server warm between calls, resending once if an idle one had died.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cellbricks/internal/obs"
)

// MaxFrame bounds a frame to keep a misbehaving peer from ballooning
// memory.
const MaxFrame = 1 << 20

// Message type bytes for the CellBricks control protocols.
const (
	// bTelco/AGW -> brokerd
	TypeSAPAuthRequest byte = iota + 1
	TypeSAPAuthResponse

	// UE/bTelco -> brokerd billing ingestion
	TypeReportUpload
	TypeReportAck

	// AGW -> SubscriberDB (legacy S6A-like, two round trips)
	TypeAIR // Authentication Information Request
	TypeAIA // Authentication Information Answer
	TypeULR // Update Location Request
	TypeULA // Update Location Answer

	// UE -> AGW NAS transport
	TypeNAS
	TypeNASReply

	// Generic error reply: payload is a UTF-8 message.
	TypeError

	// Load-shedding reply from a degraded server: payload is a uint32
	// big-endian retry-after hint in milliseconds. Surfaced to callers as
	// *RetryAfterError.
	TypeRetryAfter

	// bTelco/AGW -> brokerd: redeem MAC-mode grants for a signed receipt
	// (sap/pass.go). Appended, so every earlier type keeps its value.
	TypeSAPReceiptRequest
	TypeSAPReceiptResponse

	// brokerd's reply to a TypeReportUpload it will take only signed
	// (billing.ErrMustSign): where the TypeError frame went, so the
	// reporter can tell this refusal from every other. No payload.
	TypeReportMustSign
)

// FrameTraced is the type-byte bit marking a traced frame: a 24-byte
// obs.SpanContext sits between the type byte and the payload, carrying the
// causal trace identity across the socket. All Type* values stay below
// 0x80, so the bit is unambiguous; untraced frames are byte-identical to
// the pre-tracing wire format.
const FrameTraced byte = 0x80

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrClosed        = errors.New("wire: connection closed")
	errNoTrace       = errors.New("wire: traced frame without a trace")
)

// RetryAfterError is the typed load-shedding signal: a degraded server
// (e.g. a broker warming up after a crash-restart) answers with it instead
// of queueing work it cannot serve. The caller that owns the retry — the UE
// attach state machine — backs off for at least After before retrying. The
// connection itself remains healthy.
type RetryAfterError struct{ After time.Duration }

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("wire: server degraded, retry after %v", e.After)
}

// encodeRetryAfter renders the retry-after hint as the TypeRetryAfter
// payload (uint32 milliseconds, minimum 1).
func encodeRetryAfter(after time.Duration) []byte {
	ms := after.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(ms))
	return b[:]
}

// decodeRetryAfter parses a TypeRetryAfter payload, defaulting to 100 ms
// on malformed hints rather than failing the whole exchange.
func decodeRetryAfter(p []byte) time.Duration {
	if len(p) != 4 {
		return 100 * time.Millisecond
	}
	return time.Duration(binary.BigEndian.Uint32(p)) * time.Millisecond
}

// readBuf sizes the per-connection read buffer at both ends: a frame's
// length prefix and body arrive in one read(2) rather than two. Every frame
// of an attach fits; a larger one is read straight into its own buffer.
const readBuf = 4096

// framePool recycles frame assembly buffers across WriteFrame calls: one
// pooled buffer per frame instead of a fresh header slice, and a single
// Write instead of two (one syscall per frame on a real socket).
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// WriteFrame writes one frame carrying a span context. An invalid (zero)
// context writes the plain pre-tracing frame, so untraced traffic is
// byte-identical with tracing on or off.
func WriteFrame(w io.Writer, msgType byte, sc obs.SpanContext, payload []byte) error {
	traced := sc.Valid() && msgType&FrameTraced == 0
	hdr := 1
	if traced {
		hdr += obs.SpanContextLen
	}
	if len(payload)+hdr > MaxFrame {
		return ErrFrameTooLarge
	}
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)+hdr))
	if traced {
		buf = append(buf, msgType|FrameTraced)
		buf = obs.AppendSpanContext(buf, sc)
	} else {
		buf = append(buf, msgType)
	}
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	if err != nil {
		return err
	}
	mtr.framesSent.Add(1)
	mtr.bytesSent.Add(uint64(4 + hdr + len(payload)))
	return nil
}

// readFrame reads one frame, returning the span context it carries (zero
// for untraced frames) alongside the unmasked type byte. It reads into the
// buffers of the connection r reads: the length prefix to *lenBuf and, when
// frame is non-nil, the frame to *frame, which is reused for every frame
// that fits it and replaced by one that does not, up to readBuf. The
// payload then aliases *frame until the next call; with a nil frame it is
// a buffer of its own.
func readFrame(r io.Reader, lenBuf *[4]byte, frame *[]byte) (msgType byte, sc obs.SpanContext, payload []byte, err error) {
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, obs.SpanContext{}, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxFrame {
		return 0, obs.SpanContext{}, nil, ErrFrameTooLarge
	}
	var buf []byte
	if frame != nil && int(n) <= cap(*frame) {
		buf = (*frame)[:n]
	} else if buf = make([]byte, n); frame != nil && n <= readBuf {
		*frame = buf
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, obs.SpanContext{}, nil, err
	}
	mtr.framesRecv.Add(1)
	mtr.bytesRecv.Add(uint64(len(lenBuf) + len(buf)))
	msgType, payload = buf[0], buf[1:]
	if msgType&FrameTraced != 0 {
		sc, err = obs.DecodeSpanContext(payload)
		if err != nil {
			return 0, obs.SpanContext{}, nil, err
		}
		if !sc.Valid() {
			// WriteFrame marks a frame traced only for a valid context.
			return 0, obs.SpanContext{}, nil, errNoTrace
		}
		msgType &^= FrameTraced
		payload = payload[obs.SpanContextLen:]
	}
	return msgType, sc, payload, nil
}

// Handler serves one request frame, returning the reply frame. Returning
// an error sends a TypeError frame with the error text (or a
// TypeRetryAfter frame when the error is a *RetryAfterError).
//
// The payload is valid only for the duration of the call: the server reads
// every request of a connection into one buffer. A decoded message owns its
// leaves, so it may outlive the call; a field decoded with codec's View,
// or the payload itself, must be copied where it is kept. The reply may
// alias the payload — it is written before the next request is read.
type Handler func(msgType byte, payload []byte) (replyType byte, reply []byte, err error)

// CtxHandler is a Handler that also receives the span context carried by a
// traced frame (zero for untraced frames) — the server side of end-to-end
// causal tracing. Its payload is valid as a Handler's is.
type CtxHandler func(sc obs.SpanContext, msgType byte, payload []byte) (replyType byte, reply []byte, err error)

// ServerOptions tunes server robustness. The zero value keeps connections
// open indefinitely.
type ServerOptions struct {
	// IdleTimeout closes a connection whose peer sends nothing for this
	// long (0 = never). A dead or wedged peer then costs one goroutine for
	// a bounded time instead of forever.
	IdleTimeout time.Duration
}

// A non-shutdown Accept error sleeps acceptBackoff, doubling per
// consecutive failure up to maxAcceptBackoff.
const (
	acceptBackoff    = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

// Server accepts connections and serves frames with a Handler or
// CtxHandler.
type Server struct {
	ln      net.Listener
	handler CtxHandler
	opts    ServerOptions

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
	panics    uint64
}

// NewServer starts a server on addr ("127.0.0.1:0" for tests) with
// default options. The returned server is already accepting.
func NewServer(addr string, h Handler) (*Server, error) {
	return NewServerOptions(addr, h, ServerOptions{})
}

// NewServerOptions starts a server with explicit robustness options.
func NewServerOptions(addr string, h Handler, o ServerOptions) (*Server, error) {
	return listen(addr, func(_ obs.SpanContext, msgType byte, payload []byte) (byte, []byte, error) {
		return h(msgType, payload)
	}, o)
}

// NewServerCtx starts a server whose handler receives the span context of
// traced frames.
func NewServerCtx(addr string, h CtxHandler) (*Server, error) {
	return listen(addr, h, ServerOptions{})
}

func listen(addr string, h CtxHandler, o ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, h, o), nil
}

// serve starts a server on a listener the caller made.
func serve(ln net.Listener, h CtxHandler, o ServerOptions) *Server {
	s := &Server{ln: ln, handler: h, opts: o, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoff
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept error (EMFILE, conn reset in backlog, ...):
			// capped exponential backoff instead of busy-spinning at 100%
			// CPU on a persistent failure. Listener errors after Close
			// land in the done case above or here via the done select.
			t := time.NewTimer(backoff)
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
			}
			if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = acceptBackoff
		// Close closes done before it walks conns under the lock, so a
		// connection accepted while it runs is either registered in time
		// for that walk or refused here — never left open for Close's
		// wg.Wait to wait on for ever.
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// handle runs the handler with panic isolation: a panicking handler costs
// one connection, not the process.
func (s *Server) handle(sc obs.SpanContext, msgType byte, payload []byte) (replyType byte, reply []byte, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("wire: handler panic: %v", r)
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			obs.Errorf("wire", "handler panic (type %d): %v", msgType, r)
		}
	}()
	replyType, reply, err = s.handler(sc, msgType, payload)
	return
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBuf)
	var lenBuf [4]byte
	var frame []byte // every request's payload, in turn (Handler)
	for {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		msgType, sc, payload, err := readFrame(br, &lenBuf, &frame)
		if err != nil {
			return
		}
		replyType, reply, err, panicked := s.handle(sc, msgType, payload)
		if err != nil {
			var ra *RetryAfterError
			if errors.As(err, &ra) {
				replyType, reply = TypeRetryAfter, encodeRetryAfter(ra.After)
			} else {
				replyType, reply = TypeError, []byte(err.Error())
			}
		}
		if err := WriteFrame(conn, replyType, obs.SpanContext{}, reply); err != nil {
			return
		}
		if panicked {
			// The handler's state for this connection is suspect; reply,
			// then close this one connection.
			return
		}
	}
}

// Close stops accepting and closes all connections, waiting for handler
// goroutines to drain.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

// Options tunes client robustness. The zero value sets no call deadline
// and dials plain TCP.
type Options struct {
	// CallTimeout bounds a call's write+read on the socket (0 = no
	// deadline).
	CallTimeout time.Duration
	// Dialer is the injection point for tests and fault harnesses; nil
	// selects a plain TCP dial bounded by dialTimeout.
	Dialer func(addr string) (net.Conn, error)
}

// dialTimeout bounds each (re)dial.
const dialTimeout = 5 * time.Second

// Client is a synchronous request/response client over one TCP connection.
// Safe for concurrent use; calls serialize.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader // over replyReader, so over conn; lives and dies with it
	replied int           // reply bytes the current call read off the socket
	lenBuf  [4]byte       // a reply's length prefix
	addr    string
	closed  bool
	opts    Options
}

// replyReader counts the call's reply bytes: a Pool resends only if none came.
type replyReader struct{ c *Client }

func (r replyReader) Read(p []byte) (int, error) {
	n, err := r.c.conn.Read(p)
	r.c.replied += n
	return n, err
}

// Dial connects a client with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects a client with explicit robustness options. The
// initial dial must succeed; later breaks redial transparently.
func DialOptions(addr string, o Options) (*Client, error) {
	c := &Client{addr: addr, opts: o}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.opts.Dialer != nil {
		return c.opts.Dialer(c.addr)
	}
	return net.DialTimeout("tcp", c.addr, dialTimeout)
}

// connect dials c.conn and gives it a fresh read buffer.
func (c *Client) connect() error {
	conn, err := c.dial()
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(replyReader{c}, readBuf)
	return nil
}

// abandon gives up on a call whose transport failed: a partial write or
// read leaves the framing state undefined, so the connection is never
// reused and the next call redials.
func (c *Client) abandon(err error) (byte, []byte, error) {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
	obs.Debugf("wire", "call to %s failed, will redial: %v", c.addr, err)
	return 0, nil, err
}

// Call sends one frame and waits for the reply. A TypeError reply is
// surfaced as an error; a TypeRetryAfter reply as *RetryAfterError. A call
// that fails mid-frame abandons the connection, so a later Call redials and
// can never read a stale or misaligned reply.
func (c *Client) Call(msgType byte, payload []byte) (byte, []byte, error) {
	return c.CallCtx(msgType, obs.SpanContext{}, payload)
}

// CallCtx is Call with a span context attached to the request frame — the
// client side of end-to-end causal tracing. A zero context sends the plain
// pre-tracing frame.
func (c *Client) CallCtx(msgType byte, sc obs.SpanContext, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	c.replied = 0
	if c.conn == nil {
		// An earlier call broke the connection: redial first.
		if err := c.connect(); err != nil {
			return c.abandon(err)
		}
		mtr.redials.Add(1)
		obs.Debugf("wire", "redialled %s", c.addr)
	}
	if c.opts.CallTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	}
	if err := WriteFrame(c.conn, msgType, sc, payload); err != nil {
		return c.abandon(err)
	}
	replyType, _, reply, err := readFrame(c.br, &c.lenBuf, nil)
	if err != nil {
		return c.abandon(err)
	}
	// The exchange completed and framing is intact, whatever the reply says.
	switch replyType {
	case TypeError:
		return replyType, nil, fmt.Errorf("wire: remote error: %s", reply)
	case TypeRetryAfter:
		// Typed shed signal: the caller that owns the retry backs off.
		ra := &RetryAfterError{After: decodeRetryAfter(reply)}
		obs.Debugf("wire", "server %s shedding load, retry after %v", c.addr, ra.After)
		return 0, nil, ra
	}
	return replyType, reply, nil
}

// Close closes the underlying connection. Subsequent Calls return
// ErrClosed (Close is the only way a client becomes permanently unusable;
// transport failures merely redial).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}
