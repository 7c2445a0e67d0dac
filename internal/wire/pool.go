package wire

import (
	"sync"

	"cellbricks/internal/obs"
)

// poolMaxIdle bounds a Pool's free list; returns beyond it are closed.
const poolMaxIdle = 8

// Pool is a free list of idle connections to one server. Concurrent
// callers each borrow their own connection, where a shared Client would
// serialize them; sequential callers reuse a warm one instead of paying a
// dial, an accept and a server goroutine per call (DESIGN.md §2.4).
type Pool struct {
	addr   string
	mu     sync.Mutex // guards idle and closed
	idle   []*Client  // LIFO: the most recently used is the least likely to have idled out
	closed bool
}

// DialPool opens a pool holding one connection: an unreachable addr fails here.
func DialPool(addr string) (*Pool, error) {
	p := &Pool{addr: addr}
	c, _, err := p.get()
	if err != nil {
		return nil, err
	}
	p.put(c)
	return p, nil
}

// get borrows an idle client, or dials one when none is idle.
func (p *Pool) get() (c *Client, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(p.idle); n > 0 {
		c, p.idle[n-1] = p.idle[n-1], nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		mtr.poolReuses.Add(1)
		return c, true, nil
	}
	p.mu.Unlock()
	mtr.poolDials.Add(1)
	c, err = Dial(p.addr)
	return c, false, err
}

// put shelves a borrowed client, or closes it when its connection broke or
// the pool is full or closed. (A client on loan is its borrower's alone.)
func (p *Pool) put(c *Client) {
	p.mu.Lock()
	keep := c.conn != nil && !p.closed && len(p.idle) < poolMaxIdle
	if keep {
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
	if !keep {
		c.Close()
	}
}

// Call is Client.CallCtx on a borrowed connection. One the peer closed
// while it sat idle (restart, ServerOptions.IdleTimeout) fails before a
// single reply byte arrives: that costs one redial and resend here, not a
// failed call. After any reply byte the request is never resent. The reply
// is a buffer of its own: the caller decodes it after the connection is
// back in the pool, where another caller may already be using it.
func (p *Pool) Call(msgType byte, sc obs.SpanContext, payload []byte) (byte, []byte, error) {
	c, reused, err := p.get()
	if err != nil {
		return 0, nil, err
	}
	replyType, reply, err := c.CallCtx(msgType, sc, payload)
	if reused && c.conn == nil && c.replied == 0 {
		replyType, reply, err = c.CallCtx(msgType, sc, payload)
	}
	p.put(c)
	return replyType, reply, err
}

// Close closes the idle connections, and those on loan as they come back.
func (p *Pool) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	return nil
}
