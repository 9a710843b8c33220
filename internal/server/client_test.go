package server

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
)

func TestClientParseValueHeader(t *testing.T) {
	tests := []struct {
		name  string
		line  string
		key   string
		flags uint32
		n     int
		cas   uint64
		ok    bool
	}{
		{name: "basic", line: "VALUE k 7 5", key: "k", flags: 7, n: 5, ok: true},
		{name: "with cas", line: "VALUE key 0 64 12345", key: "key", flags: 0, n: 64, cas: 12345, ok: true},
		{name: "zero length", line: "VALUE k 0 0", key: "k", flags: 0, n: 0, ok: true},
		{name: "max flags", line: "VALUE k 4294967295 1", key: "k", flags: 1<<32 - 1, n: 1, ok: true},
		{name: "missing prefix", line: "VALU k 0 5"},
		{name: "empty", line: ""},
		{name: "prefix only", line: "VALUE "},
		{name: "no flags", line: "VALUE k"},
		{name: "no bytes", line: "VALUE k 0"},
		{name: "bad flags", line: "VALUE k x 5"},
		{name: "flags overflow", line: "VALUE k 4294967296 5"},
		{name: "bad bytes", line: "VALUE k 0 5x"},
		{name: "negative bytes", line: "VALUE k 0 -5"},
		{name: "bytes overflow", line: "VALUE k 0 99999999999999999999"},
		{name: "bad cas", line: "VALUE k 0 5 nope"},
		{name: "error response", line: "SERVER_ERROR out of memory"},
		{name: "end line", line: "END"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			key, flags, n, cas, err := parseValueHeader([]byte(tc.line))
			if !tc.ok {
				if err == nil {
					t.Fatalf("parseValueHeader(%q) accepted, want error", tc.line)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseValueHeader(%q): %v", tc.line, err)
			}
			if string(key) != tc.key || flags != tc.flags || n != tc.n || cas != tc.cas {
				t.Fatalf("parseValueHeader(%q) = (%q, %d, %d, %d), want (%q, %d, %d, %d)",
					tc.line, key, flags, n, cas, tc.key, tc.flags, tc.n, tc.cas)
			}
		})
	}
}

func TestClientReadLine(t *testing.T) {
	tests := []struct {
		name  string
		input string
		want  []string
	}{
		{name: "crlf", input: "STORED\r\nEND\r\n", want: []string{"STORED", "END"}},
		{name: "bare lf", input: "STORED\nEND\n", want: []string{"STORED", "END"}},
		{name: "empty line", input: "\r\nEND\r\n", want: []string{"", "END"}},
		{name: "truncated", input: "STOR"},
		{name: "empty input", input: ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := &Client{br: bufio.NewReader(strings.NewReader(tc.input))}
			for _, want := range tc.want {
				line, err := c.readLine()
				if err != nil {
					t.Fatalf("readLine: %v", err)
				}
				if string(line) != want {
					t.Fatalf("readLine = %q, want %q", line, want)
				}
			}
			// Exhausted (or truncated mid-line) input must error, never hand
			// back a partial line as if it were complete.
			if line, err := c.readLine(); err == nil {
				t.Fatalf("readLine past end returned %q, want error", line)
			}
		})
	}
}

// FuzzClientParseValueHeader mirrors the server-side parser fuzzer from the
// client's seat: the header parser must never panic on arbitrary bytes, and
// must round-trip every header the server's own writer can produce.
func FuzzClientParseValueHeader(f *testing.F) {
	f.Add([]byte("VALUE k 7 5"))
	f.Add([]byte("VALUE key 0 64 12345"))
	f.Add([]byte("VALUE  0 5"))
	f.Add([]byte("VALUE k 4294967295 0 18446744073709551615"))
	f.Add([]byte("SERVER_ERROR out of memory"))
	f.Add([]byte("VALUE k 0 -1"))
	f.Add([]byte("VALUE \x00 \xff \r"))
	f.Fuzz(func(t *testing.T, data []byte) {
		key, flags, n, cas, err := parseValueHeader(data)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("accepted negative length %d from %q", n, data)
		}
		// Accepted headers must round-trip through the server's writer: the
		// wire format has one canonical spelling per (key, flags, n, cas).
		hdr := appendValueHeader(nil, key, flags, n, cas, cas != 0)
		key2, flags2, n2, cas2, err := parseValueHeader(bytes.TrimSuffix(hdr, []byte("\r\n")))
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", hdr, data, err)
		}
		if !bytes.Equal(key, key2) || flags != flags2 || n != n2 || cas != cas2 {
			t.Fatalf("round-trip mismatch: %q -> (%q,%d,%d,%d) -> %q -> (%q,%d,%d,%d)",
				data, key, flags, n, cas, hdr, key2, flags2, n2, cas2)
		}
	})
}

// TestClientReconnectAcrossRestart is the self-healing contract: a client
// with a retry budget survives its server being shut down and replaced on
// the same address, and reports the recovery through Reconnects.
func TestClientReconnectAcrossRestart(t *testing.T) {
	newServer := func(ln net.Listener) (*Server, chan error) {
		inner, err := concurrent.New("qdlp", 1024, concurrent.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: concurrent.NewKV(inner, 4)})
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- srv.Serve(ln) }()
		for srv.Addr() == nil {
			time.Sleep(time.Millisecond)
		}
		return srv, errCh
	}
	shutdown := func(srv *Server, errCh chan error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	srv1, errCh1 := newServer(ln1)

	c, err := DialWithConfig(DialConfig{
		Addr:        addr,
		MaxRetries:  20,
		ReadTimeout: 2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("k"), 3, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Kill the first server. Its drain closes the client's connection.
	shutdown(srv1, errCh1)

	// Re-listen on the same address; races with lingering sockets get the
	// retry treatment too.
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("re-listen on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2, errCh2 := newServer(ln2)
	defer shutdown(srv2, errCh2)

	// The get heals across the restart: the broken conn is detected, the
	// client redials, and the op completes against the new server (a miss —
	// the store is fresh — but a successful protocol exchange).
	_, found, err := c.Get([]byte("k"))
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if found {
		t.Fatal("fresh server claims to have the key")
	}
	if c.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", c.Reconnects())
	}
	if c.Retries() < 1 {
		t.Fatalf("Retries = %d, want >= 1", c.Retries())
	}

	// The healed connection is fully functional.
	if err := c.Set([]byte("k"), 3, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get([]byte("k"))
	if err != nil || !found || string(v) != "v2" {
		t.Fatalf("get after heal = (%q, %v, %v), want (v2, true, nil)", v, found, err)
	}
}

// TestClientCloseOnBrokenConn: Close must be a no-op (nil) once a transport
// failure has already torn the connection down, and on repeated calls.
func TestClientCloseOnBrokenConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	ln.Close()
	sc.Close() // server-side hangup

	// No retry budget: the op fails and marks the client broken.
	if _, _, err := c.Get([]byte("k")); err == nil {
		t.Fatal("get on hung-up connection succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after broken conn: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClientCloseSurfacesErrors: a healthy Close sends quit and reports
// flush/close failures instead of swallowing them.
func TestClientCloseSurfacesErrors(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("k"), 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("clean Close: %v", err)
	}

	// A connection whose underlying socket is already closed out from under
	// the client must surface the failure from Close, not panic or hang.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2.conn.Close() // sabotage: conn still non-nil, so Close tries to quit
	if err := c2.Close(); err == nil {
		t.Fatal("Close on sabotaged conn reported nil")
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("repeated Close after error: %v", err)
	}
}

// TestClientMutateReplaysOnce: sets get exactly one replay after a
// reconnect, not the full get budget.
func TestClientMutateReplaysOnce(t *testing.T) {
	c := &Client{cfg: DialConfig{MaxRetries: 8}.withDefaults()}
	if got := c.mutateAttempts(); got != 2 {
		t.Fatalf("mutateAttempts with retries enabled = %d, want 2", got)
	}
	if got := c.getAttempts(); got != 9 {
		t.Fatalf("getAttempts = %d, want 9", got)
	}
	c2 := &Client{cfg: DialConfig{}.withDefaults()}
	if got := c2.mutateAttempts(); got != 1 {
		t.Fatalf("mutateAttempts with retries disabled = %d, want 1", got)
	}
}

// GetMulti returns per-key results in request order, spanning chunk
// boundaries (requests are split at MaxKeysPerGet), and GetWith carries the
// backend's flags and cas through — the router's forwarding contract.
func TestClientGetMultiAndGetWith(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// More keys than one multi-get chunk, with a hole at every 7th key.
	n := MaxKeysPerGet*2 + 11
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte("mk" + strconv.Itoa(i))
		if i%7 == 0 {
			continue // never stored: must come back as a miss
		}
		if err := c.Set(keys[i], uint32(i), []byte("v"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("GetMulti returned %d results, want %d", len(got), n)
	}
	for i, mv := range got {
		if i%7 == 0 {
			if mv.Found {
				t.Fatalf("key %d: unexpected hit", i)
			}
			continue
		}
		if !mv.Found {
			t.Fatalf("key %d: miss", i)
		}
		if want := "v" + strconv.Itoa(i); string(mv.Value) != want {
			t.Fatalf("key %d: value %q, want %q", i, mv.Value, want)
		}
		if mv.Flags != uint32(i) {
			t.Fatalf("key %d: flags %d, want %d", i, mv.Flags, i)
		}
		if mv.CAS == 0 {
			t.Fatalf("key %d: zero cas from gets", i)
		}
	}

	v, flags, cas, found, err := c.GetWith(keys[1])
	if err != nil || !found {
		t.Fatalf("GetWith: found=%v err=%v", found, err)
	}
	if string(v) != "v1" || flags != 1 || cas == 0 {
		t.Fatalf("GetWith = (%q, %d, %d)", v, flags, cas)
	}
	if _, _, _, found, err := c.GetWith([]byte("absent")); err != nil || found {
		t.Fatalf("GetWith(absent): found=%v err=%v", found, err)
	}
}

// A key asked for twice in one multi-get is answered twice: the server
// answers hits in request order, and the client pairs each VALUE with the
// next requested key of its name.
func TestClientGetMultiDuplicateKey(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("a"), 7, []byte("va")); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("a"), []byte("a"), []byte("b"), []byte("a")}
	got, err := c.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, mv := range got {
		if want := i != 2; mv.Found != want {
			t.Fatalf("key %d %q: found=%v, want %v", i, keys[i], mv.Found, want)
		}
		if mv.Found && (string(mv.Value) != "va" || mv.Flags != 7) {
			t.Fatalf("key %d: value %q flags %d", i, mv.Value, mv.Flags)
		}
	}
}

func TestClientGetMultiEmpty(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.GetMulti(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("GetMulti(nil) = %v, %v", got, err)
	}
}

// TestClientResyncAfterUnparsableReply: a reply the client rejects part way
// through leaves the rest of it unread, so the next call must start on a
// fresh connection rather than read those leftovers as its own answer. The
// fake server answers the first `get a` with another key's VALUE block and
// every later one correctly.
func TestClientResyncAfterUnparsableReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var answered atomic.Bool
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil || strings.TrimSpace(line) == "quit" {
						return
					}
					reply := "VALUE a 0 1\r\ny\r\nEND\r\n"
					if !answered.Swap(true) {
						reply = "VALUE b 0 1\r\nx\r\nEND\r\n"
					}
					conn.Write([]byte(reply))
				}
			}()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get([]byte("a")); err == nil {
		t.Fatal("get answered with another key's VALUE succeeded")
	}
	for i := 0; i < 3; i++ {
		v, found, err := c.Get([]byte("a"))
		if err != nil || !found || string(v) != "y" {
			t.Fatalf("get %d after the bad reply = (%q, %v, %v), want (y, true, nil)", i, v, found, err)
		}
	}
}
