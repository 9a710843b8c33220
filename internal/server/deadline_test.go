package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/concurrent"
)

// armRecorder is a net.Conn of which only the deadline setters work; it
// remembers what they were given.
type armRecorder struct {
	net.Conn
	reads, writes []time.Time
}

func (r *armRecorder) SetReadDeadline(t time.Time) error {
	r.reads = append(r.reads, t)
	return nil
}

func (r *armRecorder) SetWriteDeadline(t time.Time) error {
	r.writes = append(r.writes, t)
	return nil
}

// virtualDeadlines builds a lazyDeadlines whose clock reads *now.
func virtualDeadlines(read, write time.Duration, now *time.Duration) (*lazyDeadlines, *armRecorder) {
	rec := &armRecorder{}
	dl := newLazyDeadlines(rec, read, write)
	dl.since = func(time.Time) time.Duration { return *now }
	return &dl, rec
}

func TestLazyDeadlineArmsOncePerQuarter(t *testing.T) {
	const T = 400 * time.Millisecond
	var now time.Duration
	dl, rec := virtualDeadlines(T, 0, &now)
	steps := []struct {
		at  time.Duration
		arm bool
	}{
		{0, true},              // the first call always arms
		{1, false},             // covered
		{T / 4, false},         // exactly a quarter: the old deadline is still T away
		{T/4 + 1, true},        // more than a quarter
		{T/4 + 2, false},       // covered by the arm just made
		{T/2 + 1, false},       // exactly a quarter after it
		{T/2 + 2, true},        // and past it
		{10 * T, true},         // long idle
		{10*T + T/4, false},    // covered
		{10*T + T/4 + 1, true}, // past
	}
	for _, st := range steps {
		now = st.at
		before := len(rec.reads)
		dl.armRead()
		armed := len(rec.reads) > before
		if armed != st.arm {
			t.Fatalf("at %v: armed = %v, want %v", st.at, armed, st.arm)
		}
		inForce := rec.reads[len(rec.reads)-1].Sub(dl.base)
		if armed && inForce != st.at+T+T/4 {
			t.Fatalf("at %v: armed for base+%v, want now + 1.25T = base+%v", st.at, inForce, st.at+T+T/4)
		}
		// Armed or skipped, the deadline in force is T to 1.25T away.
		if left := inForce - st.at; left < T || left > T+T/4 {
			t.Fatalf("at %v: deadline in force is %v away, want %v..%v", st.at, left, T, T+T/4)
		}
	}
	if len(rec.writes) != 0 {
		t.Fatalf("armRead set %d write deadlines", len(rec.writes))
	}
}

func TestLazyDeadlineInvalidateForcesArm(t *testing.T) {
	const T = time.Second
	now := 5 * time.Second
	dl, rec := virtualDeadlines(T, T, &now)
	dl.armBoth()
	dl.armBoth()
	if len(rec.reads) != 1 || len(rec.writes) != 1 {
		t.Fatalf("two arms at one instant set %d read, %d write deadlines, want 1 each",
			len(rec.reads), len(rec.writes))
	}
	dl.invalidateRead()
	dl.armBoth()
	if len(rec.reads) != 2 {
		t.Fatalf("arm after invalidateRead set %d read deadlines, want 2", len(rec.reads))
	}
	if len(rec.writes) != 1 {
		t.Fatalf("invalidateRead re-armed the write side (%d deadlines)", len(rec.writes))
	}
	if want := dl.base.Add(now + T + T/4); !rec.reads[1].Equal(want) {
		t.Fatalf("re-armed for %v, want %v", rec.reads[1], want)
	}
}

func TestLazyDeadlineZeroTimeoutNeverArms(t *testing.T) {
	var now time.Duration
	clockReads := 0
	dl, rec := virtualDeadlines(0, 0, &now)
	dl.since = func(time.Time) time.Duration { clockReads++; return now }
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		now = at
		dl.armRead()
		dl.armWrite()
		dl.armBoth()
	}
	if len(rec.reads)+len(rec.writes) != 0 || clockReads != 0 {
		t.Fatalf("no-deadline client set %d read, %d write deadlines and read the clock %d times, want 0",
			len(rec.reads), len(rec.writes), clockReads)
	}
	// One direction without a timeout does not silence the other.
	dl, rec = virtualDeadlines(0, time.Second, &now)
	dl.armBoth()
	if len(rec.reads) != 0 || len(rec.writes) != 1 {
		t.Fatalf("write-only timeouts set %d read, %d write deadlines, want 0 and 1",
			len(rec.reads), len(rec.writes))
	}
}

func TestLazyDeadlineStampsIndependent(t *testing.T) {
	const R, W = 400 * time.Millisecond, 4 * time.Second
	var now time.Duration
	dl, rec := virtualDeadlines(R, W, &now)
	dl.armWrite()
	if len(rec.reads) != 0 || len(rec.writes) != 1 {
		t.Fatalf("armWrite set %d read, %d write deadlines", len(rec.reads), len(rec.writes))
	}
	dl.armRead() // the write arm at the same instant must not have covered it
	if len(rec.reads) != 1 {
		t.Fatal("read side skipped its first arm after a write arm")
	}
	// Past the read quarter, inside the write quarter: only read re-arms.
	now = R/4 + 1
	dl.armBoth()
	if len(rec.reads) != 2 || len(rec.writes) != 1 {
		t.Fatalf("at %v: %d read, %d write deadlines, want 2 and 1", now, len(rec.reads), len(rec.writes))
	}
	// Past the write quarter both do, each for its own timeout.
	now = W/4 + 1
	dl.armBoth()
	if len(rec.reads) != 3 || len(rec.writes) != 2 {
		t.Fatalf("at %v: %d read, %d write deadlines, want 3 and 2", now, len(rec.reads), len(rec.writes))
	}
	if got, want := rec.reads[2].Sub(dl.base), now+R+R/4; got != want {
		t.Fatalf("read armed for base+%v, want base+%v", got, want)
	}
	if got, want := rec.writes[1].Sub(dl.base), now+W+W/4; got != want {
		t.Fatalf("write armed for base+%v, want base+%v", got, want)
	}
}

// countingConn counts the deadlines set on the conn it wraps.
type countingConn struct {
	net.Conn
	arms *atomic.Int64
}

func (c countingConn) SetReadDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c countingConn) SetWriteDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// countingListener hands the server countingConns sharing one counter.
type countingListener struct {
	net.Listener
	arms *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.arms}, nil
}

// startCountingServer serves with default timeouts, one 64-byte value under
// key "k", and every server-side deadline call counted in arms.
func startCountingServer(t testing.TB) (addr string, arms *atomic.Int64) {
	arms = new(atomic.Int64)
	srv, addr := startServerOn(t, func(cfg *Config) { cfg.IdleTimeout = 0 },
		func(ln net.Listener) net.Listener { return countingListener{ln, arms} })
	srv.cfg.Store.SetDigest([]byte("k"), bytes.Repeat([]byte("v"), 64), 0, concurrent.Digest([]byte("k")), 0)
	return addr, arms
}

// getWindows sends windows pipelines of depth `get k` requests over c and
// reads every response.
func getWindows(t testing.TB, c net.Conn, windows, depth int) {
	t.Helper()
	req := bytes.Repeat([]byte("get k\r\n"), depth)
	resp := make([]byte, depth*len("VALUE k 0 64\r\n"+"\r\nEND\r\n")+depth*64)
	for i := 0; i < windows; i++ {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, resp); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.HasSuffix(resp, []byte("v\r\nEND\r\n")) {
		t.Fatalf("window ends %q, want a hit", resp[len(resp)-16:])
	}
}

// A served request must not pay for its connection's deadlines: over
// thousands of requests the server arms each direction once.
func TestServerArmsDeadlinesLazily(t *testing.T) {
	addr, arms := startCountingServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	getWindows(t, c, 1000, 1)
	getWindows(t, c, 100, 32)
	if n := arms.Load(); n < 2 || n > 8 {
		t.Fatalf("4200 gets on one connection set %d deadlines, want 2..8", n)
	}
}

// countArms swaps the client's socket for a counting wrapper of it.
func countArms(c *Client, arms *atomic.Int64) {
	cc := countingConn{c.conn, arms}
	c.conn, c.dl.conn = cc, cc
	c.br.Reset(cc)
	c.bw.Reset(cc)
}

func TestClientArmsDeadlinesLazily(t *testing.T) {
	addr, _ := startCountingServer(t)
	c, err := DialWithConfig(DialConfig{Addr: addr, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var arms atomic.Int64
	countArms(c, &arms)
	for i := 0; i < 1000; i++ {
		if _, _, _, found, err := c.GetWith([]byte("k")); err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", i, found, err)
		}
	}
	if n := arms.Load(); n < 2 || n > 8 {
		t.Fatalf("1000 GetWith set %d deadlines, want 2..8", n)
	}

	// A new socket has no deadline at all, so the stamps of the old one
	// must not vouch for it: the first operation after a reconnect arms.
	if err := c.reconnect(); err != nil {
		t.Fatal(err)
	}
	arms.Store(0)
	countArms(c, &arms)
	if _, _, _, _, err := c.GetWith([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if n := arms.Load(); n != 2 {
		t.Fatalf("first op after reconnect set %d deadlines, want 2 (read and write)", n)
	}
}

func benchmarkServed(b *testing.B, depth int) {
	addr, arms := startCountingServer(b)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	getWindows(b, c, 1, depth) // the connection's first arms
	arms.Store(0)
	windows := (b.N + depth - 1) / depth
	b.ResetTimer()
	getWindows(b, c, windows, depth)
	b.StopTimer()
	b.ReportMetric(float64(arms.Load())/float64(windows*depth), "arms/op")
}

// BenchmarkServedDepth1 and BenchmarkServedDepth32 time one served get over
// loopback, at depth 1 and in 32-deep pipelines, and report the deadline
// calls the server made per get.
func BenchmarkServedDepth1(b *testing.B)  { benchmarkServed(b, 1) }
func BenchmarkServedDepth32(b *testing.B) { benchmarkServed(b, 32) }

// A connection that keeps making progress is never cut at IdleTimeout:
// back-to-back pipelined sets for five idle windows all get their STORED,
// and the connection still answers afterwards.
func TestServerBusyConnOutlivesIdleTimeout(t *testing.T) {
	const idle = 100 * time.Millisecond
	_, addr := startServer(t, func(cfg *Config) { cfg.IdleTimeout = idle })
	rc := dialRaw(t, addr)
	sent := make(chan int, 1)
	go func() {
		batch := []byte(strings.Repeat("set s 0 0 4\r\nbusy\r\n", 16))
		n := 0
		for end := time.Now().Add(5 * idle); time.Now().Before(end); n += 16 {
			if _, err := rc.c.Write(batch); err != nil {
				t.Errorf("after %d sets: %v", n, err)
				break
			}
		}
		io.WriteString(rc.c, "version\r\n") // a failure shows as a read error below
		sent <- n
	}()
	stored := 0
	for line := rc.line(); line != "VERSION "+Version; line = rc.line() {
		if line != "STORED" {
			t.Fatalf("after %d STORED: got %q", stored, line)
		}
		stored++
	}
	if n := <-sent; stored != n {
		t.Fatalf("%d sets sent, %d STORED", n, stored)
	}
}

// An unanswered client operation fails between ReadTimeout and
// 1.25·ReadTimeout after it started, also when a hundred fast operations
// came first and the deadline in force was armed for one of them.
func TestClientReadTimeoutBounds(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerDone := make(chan error, 1)
	go func() {
		peerDone <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			for i := 0; i < 100; i++ {
				if _, err := br.ReadString('\n'); err != nil {
					return fmt.Errorf("request %d: %w", i, err)
				}
				if _, err := io.WriteString(nc, "VERSION peer\r\n"); err != nil {
					return err
				}
			}
			// From here on the network eats everything the client sends.
			src, err := chaos.NewSource(chaos.Config{BlackholeProb: 1})
			if err != nil {
				return err
			}
			hole, _ := src.Wrap(nc)
			_, err = hole.Read(make([]byte, 512))
			if err == nil {
				return errors.New("black hole returned data")
			}
			return nil // the client gave up and closed
		}()
	}()

	c, err := DialWithConfig(DialConfig{Addr: ln.Addr().String(), ReadTimeout: readTimeout, WriteTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		if _, err := c.Version(); err != nil {
			t.Fatalf("fast op %d: %v", i, err)
		}
	}
	start := time.Now()
	_, err = c.Version()
	elapsed := time.Since(start)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("black-holed op: err = %v, want a timeout", err)
	}
	if elapsed < readTimeout-10*time.Millisecond {
		t.Fatalf("timed out after %v, before ReadTimeout %v", elapsed, readTimeout)
	}
	// A second of scheduling slack: the suite runs in parallel under -race.
	if elapsed > readTimeout+readTimeout/4+time.Second {
		t.Fatalf("timed out after %v, want within 1.25 x %v", elapsed, readTimeout)
	}
	c.Close()
	if err := <-peerDone; err != nil {
		t.Fatalf("peer: %v", err)
	}
}
