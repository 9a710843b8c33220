package main

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memListener is an in-memory net.Listener: the server's connection code
// (parse, dispatch, batch, flush, deadlines) runs unchanged, but no byte
// crosses the kernel. The difference between a get over this and a get over
// loopback TCP is what the network costs. net.Pipe would not do: it hands
// each write to a waiting read, so a pipelined window would pay one
// goroutine switch per buffer instead of one per window.
type memListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial returns the client end of a new connection.
func (l *memListener) dial() (net.Conn, error) {
	a, b := &memQueue{}, &memQueue{}
	a.cond.L, b.cond.L = &a.mu, &b.mu
	client, server := &memConn{in: a, out: b}, &memConn{in: b, out: a}
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memQueue is one direction of a connection: an unbounded byte queue. The
// closed loop bounds it: a client never has more than one window in flight.
type memQueue struct {
	mu       sync.Mutex
	cond     sync.Cond
	buf      []byte
	off      int
	closed   bool
	deadline time.Time
	timer    *time.Timer
}

type memConn struct{ in, out *memQueue }

func (c *memConn) Read(p []byte) (int, error) {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.off < len(q.buf) {
			n := copy(p, q.buf[q.off:])
			if q.off += n; q.off == len(q.buf) {
				q.buf, q.off = q.buf[:0], 0
			}
			return n, nil
		}
		if q.closed {
			return 0, io.EOF
		}
		if !q.deadline.IsZero() && !time.Now().Before(q.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		q.cond.Wait()
	}
}

func (c *memConn) Write(p []byte) (int, error) {
	q := c.out
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, errors.New("mem: write on closed connection")
	}
	q.buf = append(q.buf, p...)
	q.cond.Broadcast()
	return len(p), nil
}

func (c *memConn) Close() error {
	for _, q := range []*memQueue{c.in, c.out} {
		q.mu.Lock()
		q.closed = true
		if q.timer != nil {
			q.timer.Stop()
		}
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	return nil
}

// SetReadDeadline wakes a blocked Read when t passes; the server uses a
// deadline of "now" to interrupt idle connections at shutdown.
func (c *memConn) SetReadDeadline(t time.Time) error {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	q.deadline = t
	if t.IsZero() {
		return nil
	}
	d := time.Until(t)
	if d <= 0 {
		q.cond.Broadcast()
		return nil
	}
	if q.timer == nil {
		q.timer = time.AfterFunc(d, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
	} else {
		q.timer.Reset(d)
	}
	return nil
}

// Writes never block, so a write deadline has nothing to bound.
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

func (c *memConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }
func (c *memConn) LocalAddr() net.Addr           { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr          { return memAddr{} }
