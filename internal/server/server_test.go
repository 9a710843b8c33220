package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/concurrent"
)

// startServer launches a qdlp-backed server on a loopback listener and
// returns it with its address. Cleanup shuts it down.
func startServer(t testing.TB, mutate func(*Config)) (*Server, string) {
	t.Helper()
	return startServerOn(t, mutate, nil)
}

// startServerOn is startServer serving through wrap(listener) when wrap is
// non-nil, for tests that observe the server's side of each connection.
func startServerOn(t testing.TB, mutate func(*Config), wrap func(net.Listener) net.Listener) (*Server, string) {
	t.Helper()
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:       concurrent.NewKV(inner, 8),
		MaxConns:    32,
		IdleTimeout: time.Minute,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// Wait for Serve to register the listener: a test fast enough to reach
	// Cleanup first would otherwise Shutdown a server that doesn't know its
	// listener yet and hang waiting for Serve to return.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, addr
}

// rawConn is a line-level test client over a plain socket.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (r *rawConn) send(s string) {
	r.t.Helper()
	if _, err := io.WriteString(r.c, s); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) line() string {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.br.ReadString('\n')
	if err != nil {
		r.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

func (r *rawConn) expect(want string) {
	r.t.Helper()
	if got := r.line(); got != want {
		r.t.Fatalf("got %q, want %q", got, want)
	}
}

func TestServerBasicSession(t *testing.T) {
	_, addr := startServer(t, nil)
	rc := dialRaw(t, addr)

	rc.send("set foo 7 0 3\r\nbar\r\n")
	rc.expect("STORED")
	rc.send("get foo\r\n")
	rc.expect("VALUE foo 7 3")
	rc.expect("bar")
	rc.expect("END")
	rc.send("get missing\r\n")
	rc.expect("END")

	// Multi-key get with a miss in the middle.
	rc.send("set baz 0 0 1\r\nz\r\n")
	rc.expect("STORED")
	rc.send("get foo nope baz\r\n")
	rc.expect("VALUE foo 7 3")
	rc.expect("bar")
	rc.expect("VALUE baz 0 1")
	rc.expect("z")
	rc.expect("END")

	// gets carries a cas token.
	rc.send("gets foo\r\n")
	if got := rc.line(); !strings.HasPrefix(got, "VALUE foo 7 3 ") {
		t.Fatalf("gets header %q lacks cas", got)
	}
	rc.expect("bar")
	rc.expect("END")

	rc.send("delete foo\r\n")
	rc.expect("DELETED")
	rc.send("delete foo\r\n")
	rc.expect("NOT_FOUND")
	rc.send("get foo\r\n")
	rc.expect("END")

	// noreply set produces no response; the next get sees the value.
	rc.send("set quiet 0 0 2 noreply\r\nok\r\nget quiet\r\n")
	rc.expect("VALUE quiet 0 2")
	rc.expect("ok")
	rc.expect("END")

	// Protocol errors are recoverable.
	rc.send("bogus\r\n")
	rc.expect("ERROR")
	rc.send("get " + strings.Repeat("x", 300) + "\r\n")
	if got := rc.line(); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("got %q, want CLIENT_ERROR", got)
	}
	rc.send("get quiet\r\n")
	rc.expect("VALUE quiet 0 2")
	rc.expect("ok")
	rc.expect("END")
}

func TestServerStatsConsistency(t *testing.T) {
	srv, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%d", i%10))
		if v, found, err := c.Get(key); err != nil {
			t.Fatal(err)
		} else if found && len(v) == 0 {
			t.Fatal("empty hit")
		} else if !found {
			if err := c.Set(key, 0, []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	gets, _ := StatInt(st, "cmd_get")
	hits, _ := StatInt(st, "get_hits")
	misses, _ := StatInt(st, "get_misses")
	if gets != 50 {
		t.Fatalf("cmd_get = %d, want 50", gets)
	}
	if hits+misses != gets {
		t.Fatalf("hits %d + misses %d != gets %d", hits, misses, gets)
	}
	if misses != 10 || hits != 40 {
		t.Fatalf("hits=%d misses=%d, want 40/10", hits, misses)
	}
	items, _ := StatInt(st, "curr_items")
	if items != 10 {
		t.Fatalf("curr_items = %d", items)
	}
	bytes, _ := StatInt(st, "curr_bytes")
	if bytes != 50 { // 10 items × len("value")
		t.Fatalf("curr_bytes = %d", bytes)
	}
	if got := srv.Counters().Sets.Load(); got != 10 {
		t.Fatalf("cmd_set = %d", got)
	}
}

// A pipelined burst is answered completely and in order.
func TestServerPipelining(t *testing.T) {
	_, addr := startServer(t, nil)
	rc := dialRaw(t, addr)
	var b strings.Builder
	const n = 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "set k%d 0 0 2 noreply\r\nv%d\r\n", i%100, i%10)
		fmt.Fprintf(&b, "get k%d\r\n", i%100)
	}
	rc.send(b.String())
	for i := 0; i < n; i++ {
		rc.expect(fmt.Sprintf("VALUE k%d 0 2", i%100))
		rc.expect(fmt.Sprintf("v%d", i%10))
		rc.expect("END")
	}
}

func TestServerMaxConns(t *testing.T) {
	_, addr := startServer(t, func(cfg *Config) { cfg.MaxConns = 1 })
	rc1 := dialRaw(t, addr)
	rc1.send("stats\r\n")
	if got := rc1.line(); !strings.HasPrefix(got, "STAT ") {
		t.Fatalf("first conn broken: %q", got)
	}
	for rc1.line() != "END" {
	}
	rc2 := dialRaw(t, addr)
	rc2.expect("SERVER_ERROR too many connections")
	if _, err := rc2.br.ReadByte(); err != io.EOF {
		t.Fatalf("rejected conn not closed: %v", err)
	}
	// First connection still works.
	rc1.send("set a 0 0 1\r\nx\r\n")
	rc1.expect("STORED")
}

// An idle connection is closed between IdleTimeout and 1.25·IdleTimeout
// after its last request. The version round trip comes first so the close
// rides a read deadline armed before the idle period began — the lazy case,
// where the deadline left over from an earlier arm must still cover a full
// IdleTimeout.
func TestServerIdleTimeout(t *testing.T) {
	const idle = 200 * time.Millisecond
	_, addr := startServer(t, func(cfg *Config) { cfg.IdleTimeout = idle })
	rc := dialRaw(t, addr)
	rc.send("version\r\n")
	sent := time.Now()
	rc.expect("VERSION " + Version)
	answered := time.Now()
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc.br.ReadByte(); err != io.EOF {
		t.Fatalf("idle conn: got %v, want EOF", err)
	}
	closed := time.Now()
	if early := closed.Sub(sent); early < idle-10*time.Millisecond {
		t.Fatalf("closed %v after the last request, before IdleTimeout %v", early, idle)
	}
	// A second of scheduling slack: the suite runs in parallel under -race.
	if late := closed.Sub(answered); late > idle+idle/4+time.Second {
		t.Fatalf("closed %v after the last response, want within 1.25 x %v", late, idle)
	}
}

// An oversized set reports SERVER_ERROR and closes (the body was never
// consumed, so the stream cannot stay in sync).
func TestServerValueTooLarge(t *testing.T) {
	_, addr := startServer(t, func(cfg *Config) { cfg.MaxValueLen = 1024 })
	rc := dialRaw(t, addr)
	rc.send("set big 0 0 2048\r\n")
	rc.expect("SERVER_ERROR object too large for cache")
	if _, err := rc.br.ReadByte(); err != io.EOF {
		t.Fatalf("conn not closed after oversized set: %v", err)
	}
}

// Shutdown during a pipelined burst: every request already sent must get
// its complete response before the connection closes — drain, not drop.
func TestServerGracefulShutdownDrains(t *testing.T) {
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: concurrent.NewKV(inner, 8), IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 500
	var b strings.Builder
	b.WriteString("set k 0 0 3\r\nval\r\n")
	for i := 0; i < n; i++ {
		b.WriteString("get k\r\n")
	}
	if _, err := io.WriteString(c, b.String()); err != nil {
		t.Fatal(err)
	}
	// A connection the accept loop has not yet registered when Shutdown
	// starts is turned away, so wait until it is registered: the drain
	// under test is of an in-flight burst, not of that race.
	for srv.counters.CurrConns.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	// Shut down while the burst is (very likely) mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	expect := func(want string) {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("response dropped mid-drain: %v", err)
		}
		if got := strings.TrimRight(line, "\r\n"); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	expect("STORED")
	for i := 0; i < n; i++ {
		expect("VALUE k 0 3")
		expect("val")
		expect("END")
	}
	// After the drain the server closes the connection.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after drain: got %v, want EOF", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// Shutdown racing the accept loop: dialers keep connecting while the server
// drains. A connection the loop has accepted but not yet registered when
// Shutdown starts must be either waited for or turned away — under -race,
// a WaitGroup Add beside Shutdown's Wait fails the run — and Shutdown must
// return without its deadline whichever way each one went.
func TestShutdownRacesAccept(t *testing.T) {
	for round := 0; round < 20; round++ {
		inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: concurrent.NewKV(inner, 8), IdleTimeout: time.Minute, MaxConns: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()

		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					c, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return // the listener is closed
					}
					c.Close()
				}
			}()
		}
		for srv.counters.TotalConns.Load() < 8 {
			runtime.Gosched()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		cancel()
		if err := <-serveErr; err != nil {
			t.Fatalf("round %d: serve: %v", round, err)
		}
		dialers.Wait()
	}
}

// TestServerExptimeSemantics pins the memcached exptime contract: negative
// exptime (or an absolute timestamp in the past) means "store already
// expired" — acknowledged, value never visible, any prior version dropped —
// while a positive exptime stores with a deadline: relative seconds up to
// 30 days, absolute unix timestamps beyond.
func TestServerExptimeSemantics(t *testing.T) {
	_, addr := startServer(t, nil)
	rc := dialRaw(t, addr)

	// Negative exptime on a fresh key: STORED, but the value is absent.
	rc.send("set gone 0 -1 3\r\nxyz\r\n")
	rc.expect("STORED")
	rc.send("get gone\r\n")
	rc.expect("END")

	// Negative exptime over a live key drops the previous version too.
	rc.send("set k 0 0 3\r\nold\r\n")
	rc.expect("STORED")
	rc.send("set k 0 -30 3\r\nnew\r\n")
	rc.expect("STORED")
	rc.send("get k\r\n")
	rc.expect("END")

	// Relative TTL well in the future: stored and immediately visible.
	rc.send("set ttl 0 60 3\r\nabc\r\n")
	rc.expect("STORED")
	rc.send("get ttl\r\n")
	rc.expect("VALUE ttl 0 3")
	rc.expect("abc")
	rc.expect("END")

	// Absolute timestamp in the future (> 30 days on the wire): visible.
	future := time.Now().Unix() + 3600
	rc.send(fmt.Sprintf("set abs 0 %d 3\r\nfut\r\n", future))
	rc.expect("STORED")
	rc.send("get abs\r\n")
	rc.expect("VALUE abs 0 3")
	rc.expect("fut")
	rc.expect("END")

	// Absolute timestamp in the past: already expired, same as negative.
	rc.send("set past 0 2592001 3\r\nold\r\n")
	rc.expect("STORED")
	rc.send("get past\r\n")
	rc.expect("END")

	// noreply suppresses STORED acks for both the already-expired and the
	// TTL store (memcached behavior).
	rc.send("set q1 0 -1 1 noreply\r\na\r\nset q2 0 9 1 noreply\r\nb\r\nget q1 q2\r\n")
	rc.expect("VALUE q2 0 1")
	rc.expect("b")
	rc.expect("END")
}

// TestResolveExptime pins the wire-exptime → absolute-deadline mapping at
// the 30-day boundary, where relative seconds hand over to absolute unix
// timestamps.
func TestResolveExptime(t *testing.T) {
	const now = int64(1_700_000_000) // far above the 30-day threshold
	const month = int64(exptimeAbsThreshold)
	cases := []struct {
		name     string
		exptime  int64
		expireAt int64
		expired  bool
	}{
		{"zero never expires", 0, 0, false},
		{"negative already expired", -1, 0, true},
		{"very negative already expired", -1 << 40, 0, true},
		{"one second relative", 1, now + 1, false},
		{"boundary is still relative", month, now + month, false},
		{"past boundary is absolute", month + 1, 0, true}, // 1971: long past
		{"absolute now is expired", now, 0, true},
		{"absolute future", now + 1, now + 1, false},
		{"absolute far future", now + 86400, now + 86400, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotAt, gotExpired := resolveExptime(tc.exptime, now)
			if gotAt != tc.expireAt || gotExpired != tc.expired {
				t.Errorf("resolveExptime(%d, now) = (%d, %v), want (%d, %v)",
					tc.exptime, gotAt, gotExpired, tc.expireAt, tc.expired)
			}
		})
	}
}
