// Package wire is the length-prefixed framing and minimal request/response
// RPC used between the real-socket components of the testbed: UE <-> AGW
// (standing in for the radio + S1 interface) and AGW <-> brokerd /
// SubscriberDB (the S6A-like northbound). Stdlib only.
//
// Frame layout: length(4, big-endian, covers type+payload) || type(1) ||
// payload. Each Call writes one frame and reads one frame; the server
// serves calls on a connection strictly in order, which matches the
// signalling protocols modelled here.
//
// Robustness: a Call that fails mid-frame leaves the TCP stream in an
// undefined framing state, so the client marks the connection broken and
// transparently redials on the next attempt instead of desyncing. Options
// adds per-call deadlines and bounded, jittered-exponential-backoff
// retries; ServerOptions adds idle-connection timeouts. A degraded server
// can shed load with a typed retry-after reply (TypeRetryAfter /
// RetryAfterError) that survives the round trip. Pool keeps a caller's
// connections to one server warm between calls.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
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
)

// RetryAfterError is the typed load-shedding signal: a degraded server
// (e.g. a broker warming up after a crash-restart) answers with it instead
// of queueing work it cannot serve. Callers — the wire client's retry loop
// and the UE attach state machine — back off for at least After before
// retrying. The connection itself remains healthy.
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

// framePool recycles frame assembly buffers across WriteFrame calls: one
// pooled buffer per frame instead of a fresh header slice, and a single
// Write instead of two (one syscall per frame on a real socket).
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	return WriteFrameCtx(w, msgType, obs.SpanContext{}, payload)
}

// WriteFrameCtx writes one frame carrying a span context. An invalid
// (zero) context writes the plain pre-tracing frame, so untraced traffic
// is byte-identical with or without this path.
func WriteFrameCtx(w io.Writer, msgType byte, sc obs.SpanContext, payload []byte) error {
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

// ReadFrame reads one frame, discarding any span context it carries.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	msgType, _, payload, err = ReadFrameCtx(r)
	return msgType, payload, err
}

// ReadFrameCtx reads one frame, returning the span context it carries
// (zero for untraced frames) alongside the unmasked type byte.
func ReadFrameCtx(r io.Reader) (msgType byte, sc obs.SpanContext, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, obs.SpanContext{}, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxFrame {
		return 0, obs.SpanContext{}, nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
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
		msgType &^= FrameTraced
		payload = payload[obs.SpanContextLen:]
	}
	return msgType, sc, payload, nil
}

// Handler serves one request frame, returning the reply frame. Returning
// an error sends a TypeError frame with the error text (or a
// TypeRetryAfter frame when the error is a *RetryAfterError).
type Handler func(msgType byte, payload []byte) (replyType byte, reply []byte, err error)

// CtxHandler is a Handler that also receives the span context carried by a
// traced frame (zero for untraced frames) — the server side of end-to-end
// causal tracing.
type CtxHandler func(sc obs.SpanContext, msgType byte, payload []byte) (replyType byte, reply []byte, err error)

// ServerOptions tunes server robustness. The zero value keeps connections
// open indefinitely and backs accept errors off between 5 ms and 1 s.
type ServerOptions struct {
	// IdleTimeout closes a connection whose peer sends nothing for this
	// long (0 = never). A dead or wedged peer then costs one goroutine for
	// a bounded time instead of forever.
	IdleTimeout time.Duration
	// AcceptBackoff is the initial sleep after a non-shutdown Accept
	// error; it doubles per consecutive failure up to MaxAcceptBackoff.
	AcceptBackoff    time.Duration
	MaxAcceptBackoff time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.AcceptBackoff <= 0 {
		o.AcceptBackoff = 5 * time.Millisecond
	}
	if o.MaxAcceptBackoff <= 0 {
		o.MaxAcceptBackoff = time.Second
	}
	return o
}

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
	return NewServerCtxOptions(addr, func(_ obs.SpanContext, msgType byte, payload []byte) (byte, []byte, error) {
		return h(msgType, payload)
	}, o)
}

// NewServerCtx starts a server whose handler receives the span context of
// traced frames.
func NewServerCtx(addr string, h CtxHandler) (*Server, error) {
	return NewServerCtxOptions(addr, h, ServerOptions{})
}

// NewServerCtxOptions starts a context-aware server with explicit
// robustness options.
func NewServerCtxOptions(addr string, h CtxHandler, o ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: h, opts: o.withDefaults(), conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HandlerPanics reports how many handler panics the server has recovered.
func (s *Server) HandlerPanics() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panics
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := s.opts.AcceptBackoff
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
			if backoff *= 2; backoff > s.opts.MaxAcceptBackoff {
				backoff = s.opts.MaxAcceptBackoff
			}
			continue
		}
		backoff = s.opts.AcceptBackoff
		s.mu.Lock()
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
			mtr.panics.Add(1)
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
	for {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		msgType, sc, payload, err := ReadFrameCtx(conn)
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
		if err := WriteFrame(conn, replyType, reply); err != nil {
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

// Options tunes client robustness. The zero value keeps the original
// behaviour — no deadlines, no in-call retries — except that a transport
// error now breaks the connection and the next Call transparently redials
// instead of reusing a desynced frame stream.
type Options struct {
	// CallTimeout bounds each attempt's write+read on the socket
	// (0 = no deadline).
	CallTimeout time.Duration
	// DialTimeout bounds each (re)dial (default 5 s).
	DialTimeout time.Duration
	// MaxRetries is how many additional attempts a Call makes after a
	// transport failure or a retry-after reply, redialling as needed.
	// Remote application errors (TypeError) never retry.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (default 10 ms), capped at MaxBackoff (default 1 s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Jitter randomizes each backoff by up to this fraction (0..1) using
	// a deterministic source seeded with Seed, so retry storms decorrelate
	// but tests replay exactly.
	Jitter float64
	Seed   int64
	// Sleep and Dialer are injection points for tests and fault
	// harnesses; nil selects time.Sleep and a plain TCP dial.
	Sleep  func(time.Duration)
	Dialer func(addr string) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// ClientStats counts the client's recovery actions.
type ClientStats struct {
	Calls   uint64 // completed Call invocations
	Retries uint64 // extra attempts after a failure
	Redials uint64 // reconnects (including the lazy redial after a break)
	Broken  uint64 // connections abandoned mid-frame
}

// Client is a synchronous request/response client over one TCP connection.
// Safe for concurrent use; calls serialize.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	replied int // reply bytes read by the current call, across its attempts
	addr    string
	closed  bool
	opts    Options
	rng     *rand.Rand
	stats   ClientStats
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
	o = o.withDefaults()
	c := &Client{addr: addr, opts: o, rng: rand.New(rand.NewSource(o.Seed))}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.opts.Dialer != nil {
		return c.opts.Dialer(c.addr)
	}
	return net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
}

// Stats returns a snapshot of the client's recovery counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// breakConn abandons a connection whose framing state is undefined (a
// partial write or read happened). The next attempt redials.
func (c *Client) breakConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.stats.Broken++
		mtr.broken.Add(1)
		obs.Debugf("wire", "connection to %s broken mid-frame, will redial", c.addr)
	}
}

// backoff computes the jittered exponential delay before retry attempt
// `attempt` (1-based), honouring a server retry-after hint as a floor.
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	d := c.opts.RetryBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	if j := c.opts.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j/2 + j*c.rng.Float64()))
	}
	if d < floor {
		d = floor
	}
	return d
}

// callOnce performs one framed exchange on the current connection,
// redialling first if the previous attempt broke it. transport=true means
// the connection state is undefined and the frame may not have been
// served.
func (c *Client) callOnce(msgType byte, sc obs.SpanContext, payload []byte) (byte, []byte, error, bool) {
	if c.conn == nil {
		conn, err := c.dial()
		if err != nil {
			return 0, nil, err, true
		}
		c.conn = conn
		c.stats.Redials++
		mtr.redials.Add(1)
		obs.Debugf("wire", "redialled %s", c.addr)
	}
	if c.opts.CallTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	}
	if err := WriteFrameCtx(c.conn, msgType, sc, payload); err != nil {
		return 0, nil, err, true
	}
	replyType, reply, err := ReadFrame(replyReader{c})
	if err != nil {
		return 0, nil, err, true
	}
	switch replyType {
	case TypeError:
		return replyType, nil, fmt.Errorf("wire: remote error: %s", reply), false
	case TypeRetryAfter:
		return replyType, nil, &RetryAfterError{After: decodeRetryAfter(reply)}, false
	}
	return replyType, reply, nil, false
}

// Call sends one frame and waits for the reply. A TypeError reply is
// surfaced as an error; a TypeRetryAfter reply as *RetryAfterError. With
// MaxRetries > 0, transport failures and retry-after replies are retried
// with jittered exponential backoff, redialling broken connections; an
// attempt that fails mid-frame always abandons the connection so a later
// Call can never read a stale or misaligned reply.
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
	c.stats.Calls++
	c.replied = 0
	mtr.calls.Add(1)
	if mtr.callLatency != nil {
		start := time.Now()
		defer func() { mtr.callLatency.Observe(time.Since(start)) }()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			mtr.retries.Add(1)
		}
		replyType, reply, err, transport := c.callOnce(msgType, sc, payload)
		if err == nil {
			return replyType, reply, nil
		}
		var ra *RetryAfterError
		switch {
		case transport:
			// Mid-frame failure: the stream is desynced, never reuse it.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				mtr.deadlineHits.Add(1)
			}
			c.breakConn()
			lastErr = err
			obs.Debugf("wire", "call to %s attempt %d failed: %v", c.addr, attempt+1, err)
		case errors.As(err, &ra):
			// Typed shed signal: connection healthy, retry after the hint.
			mtr.shedReplies.Add(1)
			lastErr = err
			obs.Debugf("wire", "server %s shedding load, retry after %v", c.addr, ra.After)
		default:
			// Remote application error: the exchange completed; framing is
			// intact and retrying would re-run a failed request.
			return replyType, reply, err
		}
		if attempt >= c.opts.MaxRetries {
			return 0, nil, lastErr
		}
		floor := time.Duration(0)
		if ra != nil {
			floor = ra.After
		}
		c.opts.Sleep(c.backoff(attempt+1, floor))
	}
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
	c.conn = nil
	return err
}
