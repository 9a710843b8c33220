package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/concurrent"
)

// syncBuf is a mutex-guarded buffer for capturing slog output from
// concurrently-running connection handlers.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// panicStore panics in SetDigest for one poisoned key, modeling a store bug
// the fuzzer missed. Everything else delegates to the production store.
type panicStore struct {
	Store
}

func (p *panicStore) SetDigest(key, value []byte, flags uint32, id uint64, expireAt int64) uint64 {
	if string(key) == "boom" {
		panic("injected store fault")
	}
	return p.Store.SetDigest(key, value, flags, id, expireAt)
}

// TestPanicIsolatedToConnection is the fault-isolation contract: a handler
// panic costs exactly the connection that triggered it. The panic is
// counted, logged with its stack, and every other connection (existing and
// new) keeps being served.
func TestPanicIsolatedToConnection(t *testing.T) {
	logBuf := &syncBuf{}
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Store = &panicStore{Store: cfg.Store}
		cfg.Logger = slog.New(slog.NewTextHandler(logBuf, nil))
	})

	// A bystander connection established before the panic.
	bystander, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	if err := bystander.Set([]byte("ok"), 0, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// The victim trips the store fault. Its connection must die without a
	// response — and nothing else may.
	victim := dialRaw(t, addr)
	victim.send("set boom 0 0 1\r\nx\r\n")
	victim.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := victim.c.Read(one); err == nil {
		t.Fatal("connection survived a handler panic")
	}

	if n := srv.Counters().Panics.Load(); n != 1 {
		t.Fatalf("panics = %d, want 1", n)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "panic isolated") {
		t.Fatalf("panic not logged:\n%s", logs)
	}
	if !strings.Contains(logs, "injected store fault") || !strings.Contains(logs, "goroutine") {
		t.Fatalf("panic log missing value or stack:\n%s", logs)
	}

	// The bystander's connection still works, and so do fresh ones.
	v, found, err := bystander.Get([]byte("ok"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("bystander get = (%q, %v, %v) after panic", v, found, err)
	}
	fresh := dialRaw(t, addr)
	fresh.send("get ok\r\n")
	fresh.expect("VALUE ok 0 1")
	fresh.expect("v")
	fresh.expect("END")
}

// flakyListener fails its first Accepts with scripted errors, then
// delegates to the real listener.
type flakyListener struct {
	net.Listener
	mu   sync.Mutex
	errs []error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	inner, err := concurrent.New("qdlp", 1024, concurrent.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: concurrent.NewKV(inner, 4)})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServeSurvivesTransientAcceptErrors: fd exhaustion and aborted-in-
// backlog errors back off and retry instead of tearing Serve down.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	srv := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, errs: []error{
		&net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE},
		&net.OpError{Op: "accept", Net: "tcp", Err: syscall.ECONNABORTED},
	}}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(fl) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	// The server must still be accepting after eating both errors.
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("k"), 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Counters().AcceptRetries.Load(); n != 2 {
		t.Fatalf("accept_retries = %d, want 2", n)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeReturnsOnTerminalAcceptError: a broken listener (not a transient
// error) must surface from Serve, not spin the backoff loop forever.
func TestServeReturnsOnTerminalAcceptError(t *testing.T) {
	srv := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl := &flakyListener{Listener: ln, errs: []error{errors.New("wires cut")}}
	if err := srv.Serve(fl); err == nil || !strings.Contains(err.Error(), "wires cut") {
		t.Fatalf("Serve = %v, want terminal accept error", err)
	}
}

// TestSlowReaderEvicted: a client that stops draining responses is closed
// at the write deadline and counted, instead of holding buffered responses
// (and a goroutine) hostage; other connections keep being served.
func TestSlowReaderEvicted(t *testing.T) {
	const valueLen = 128 << 10
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.WriteTimeout = 200 * time.Millisecond
	})

	// Seed a value large enough that pipelined hits overwhelm socket buffers.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("big"), 0, bytes.Repeat([]byte("x"), valueLen)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The slow reader: shrink its receive buffer, pipeline several hundred
	// MB of responses, and never read a byte.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.(*net.TCPConn).SetReadBuffer(4 << 10)
	req := bytes.Repeat([]byte("get big\r\n"), 512)
	if _, err := slow.Write(req); err != nil {
		t.Fatal(err)
	}

	// Generous deadline: under -race with the whole suite in parallel the
	// handler can be starved for a while before the write deadline fires.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Counters().SlowConnsClosed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow reader never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The eviction cost only the slow connection.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	v, found, err := c2.Get([]byte("big"))
	if err != nil || !found || len(v) != valueLen {
		t.Fatalf("get after eviction = (len %d, %v, %v)", len(v), found, err)
	}
}

// Compile-time guard that the fake errors above really classify as
// transient — the classifier, not the test script, decides.
func TestTransientAcceptErrClassifier(t *testing.T) {
	transient := []error{
		&net.OpError{Op: "accept", Err: syscall.EMFILE},
		&net.OpError{Op: "accept", Err: syscall.ENFILE},
		&net.OpError{Op: "accept", Err: syscall.ECONNABORTED},
		&net.OpError{Op: "accept", Err: syscall.ECONNRESET},
		&net.OpError{Op: "accept", Err: syscall.ENOBUFS},
		syscall.EINTR,
	}
	for _, err := range transient {
		if !isTransientAcceptErr(err) {
			t.Errorf("isTransientAcceptErr(%v) = false, want true", err)
		}
	}
	terminal := []error{
		errors.New("wires cut"),
		net.ErrClosed,
		&net.OpError{Op: "accept", Err: syscall.EBADF},
		fmt.Errorf("wrapped: %w", errors.New("listener gone")),
	}
	for _, err := range terminal {
		if isTransientAcceptErr(err) {
			t.Errorf("isTransientAcceptErr(%v) = true, want false", err)
		}
	}
}
