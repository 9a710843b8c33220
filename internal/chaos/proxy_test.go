package chaos

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// echoServer accepts connections and echoes lines until closed.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// A fault-free proxy is a transparent byte pipe.
func TestProxyPassThrough(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("", backend, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; i < 50; i++ {
		msg := fmt.Sprintf("ping %d\n", i)
		if _, err := io.WriteString(c, msg); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line != msg {
			t.Fatalf("echo %q, want %q", line, msg)
		}
	}
}

// Under latency and fragmentation the stream stays intact — slower, never
// corrupted. Faults are drawn per I/O op and the kernel decides how many
// ops the echo takes, so the latency is certain (every op is delayed)
// rather than probable: the stream is faulted however it is chunked.
func TestProxyLatencyAndFragmentationPreserveBytes(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("", backend, Config{
		Seed:        2,
		LatencyProb: 1,
		Latency:     time.Millisecond,
		PartialProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("the quick brown fox "), 200)
	go func() {
		c.Write(payload)
		c.(*net.TCPConn).CloseWrite()
	}()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 4096)
	for len(got) < len(payload) {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("faulted echo corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	if p.Counters().Delays.Load() == 0 {
		t.Fatal("no op delayed at latency probability 1")
	}
}

// Proxy.Close tears down active connections and leaks no goroutines, even
// with reads black-holed mid-flight.
func TestProxyCloseLeaksNothing(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	base := runtime.NumGoroutine()

	p, err := NewProxy("", backend, Config{Seed: 3, BlackholeProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, 0, 8)
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		io.WriteString(c, "into the void\n")
	}
	time.Sleep(50 * time.Millisecond) // let the proxy pick everything up
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > base %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
