package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns both ends of one loopback TCP connection: a (the
// accepted end, which the server wraps) and b (the dialled end).
func tcpPair(t *testing.T) (a, b *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	ac, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	bc := <-dialed
	if bc == nil {
		t.FailNow()
	}
	t.Cleanup(func() { ac.Close(); bc.Close() })
	return ac.(*net.TCPConn), bc.(*net.TCPConn)
}

// TestSockIOLoopbackZeroAllocs is the socket half of the served path's
// alloc guards (the others run over bytes.Reader and io.Discard): a
// request read, a reply written with writeBuffers and one with Write, in
// steady state over a real socket, touch the heap zero times.
func TestSockIOLoopbackZeroAllocs(t *testing.T) {
	srv, cli := tcpPair(t)
	s := newSockIO(srv)
	req := []byte("get key-07\r\n")
	reply := [][]byte{[]byte("VALUE key-07 0 8\r\n"), []byte("value-07"), []byte("\r\nEND\r\n")}
	const replyLen = 18 + 8 + 7
	in := make([]byte, 64)
	back := make([]byte, replyLen+len(reply[2]))
	round := func() {
		if _, err := cli.Write(req); err != nil {
			t.Fatal(err)
		}
		if n, err := io.ReadFull(s, in[:len(req)]); err != nil || !bytes.Equal(in[:n], req) {
			t.Fatalf("read %q, %v", in[:n], err)
		}
		if err := s.writeBuffers(reply); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(reply[2]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cli, back); err != nil {
			t.Fatal(err)
		}
	}
	round() // grow the iovec scratch once
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Fatalf("socket read + writev + write allocate %.2f/op, want 0", avg)
	}
}

// TestSockIOWakeups checks that a parked read wakes on its deadline, on
// Close from another goroutine and on the peer's EOF and reset, and a
// parked write on its deadline — each with the error the connection loop
// and Client classify.
func TestSockIOWakeups(t *testing.T) {
	within := func(t *testing.T, d time.Duration, f func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			return err
		case <-time.After(d):
			t.Fatalf("still parked after %v", d)
			return nil
		}
	}
	buf := make([]byte, 16)

	t.Run("read deadline", func(t *testing.T) {
		srv, _ := tcpPair(t)
		s := newSockIO(srv)
		srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		err := within(t, 2*time.Second, func() error { _, err := s.Read(buf); return err })
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("read past its deadline: %v, want a timeout", err)
		}
		// The deadline can be pushed out again, as the drain wake-up does.
		srv.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if err := within(t, 2*time.Second, func() error { _, err := s.Read(buf); return err }); !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("second deadline: %v", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		srv, _ := tcpPair(t)
		s := newSockIO(srv)
		time.AfterFunc(50*time.Millisecond, func() { srv.Close() })
		err := within(t, 2*time.Second, func() error { _, err := s.Read(buf); return err })
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read on a closed conn: %v, want net.ErrClosed", err)
		}
	})
	t.Run("eof", func(t *testing.T) {
		srv, cli := tcpPair(t)
		s := newSockIO(srv)
		cli.Write([]byte("x"))
		cli.Close()
		if n, err := s.Read(buf); n != 1 || err != nil {
			t.Fatalf("first read: %d, %v", n, err)
		}
		if _, err := s.Read(buf); err != io.EOF {
			t.Fatalf("read after the peer closed: %v, want io.EOF", err)
		}
	})
	t.Run("reset", func(t *testing.T) {
		srv, cli := tcpPair(t)
		s := newSockIO(srv)
		cli.SetLinger(0)
		cli.Close()
		err := within(t, 2*time.Second, func() error { _, err := s.Read(buf); return err })
		if err == nil || err == io.EOF || !IsTransportErr(err) {
			t.Fatalf("read after a reset: %v, want a transport error", err)
		}
	})
	t.Run("write deadline", func(t *testing.T) {
		srv, _ := tcpPair(t)
		s := newSockIO(srv)
		srv.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		big := [][]byte{make([]byte, 32<<20)} // far past any socket buffer; the peer never reads
		err := within(t, 5*time.Second, func() error { return s.writeBuffers(big) })
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("writev to a reader that never drains: %v, want a timeout", err)
		}
	})
}
