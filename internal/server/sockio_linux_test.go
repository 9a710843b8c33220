package server

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestSockIORawPathByConcreteType: only a *net.TCPConn takes the raw path.
// A wrapper that embeds one keeps its own Read and Write (so chaos.Conn's
// faults still bite), and so does any other stream.
func TestSockIORawPathByConcreteType(t *testing.T) {
	srv, _ := tcpPair(t)
	if newSockIO(srv).rc == nil {
		t.Fatal("*net.TCPConn took the plain path")
	}
	type wrapped struct{ *net.TCPConn }
	if newSockIO(wrapped{srv}).rc != nil {
		t.Fatal("a wrapper embedding *net.TCPConn took the raw path")
	}
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	if newSockIO(p1).rc != nil {
		t.Fatal("net.Pipe took the raw path")
	}
	if newSockIO(&bytes.Buffer{}).rc != nil {
		t.Fatal("bytes.Buffer took the raw path")
	}
}

// parkCounter counts the write callbacks that returned false (EAGAIN), each
// of which parks the goroutine in the netpoller.
type parkCounter struct {
	syscall.RawConn
	parks int
}

func (c *parkCounter) Write(f func(uintptr) bool) error {
	return c.RawConn.Write(func(fd uintptr) bool {
		done := f(fd)
		if !done {
			c.parks++
		}
		return done
	})
}

// TestSockIOWritevPartialAndResume flushes more segments than one writev
// takes (IOV_MAX) and more bytes than the socket buffer holds, to a reader
// that starts late and reads in small bites: writev returns short, then
// EAGAIN parks the goroutine in the poller (not a blocking fd), and each
// resumption must pick up at the right byte.
func TestSockIOWritevPartialAndResume(t *testing.T) {
	srv, cli := tcpPair(t)
	if err := srv.SetWriteBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	if err := cli.SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	s := newSockIO(srv)
	pc := &parkCounter{RawConn: s.rc}
	s.rc = pc
	const nsegs = 3000
	var segs [][]byte
	var want bytes.Buffer
	for i := 0; i < nsegs; i++ {
		seg := make([]byte, (i*37)%1500) // some empty, up to 1.5 KiB
		for j := range seg {
			seg[j] = byte(i + j*7)
		}
		segs = append(segs, seg)
		want.Write(seg)
	}
	heads := append([][]byte(nil), segs...)

	got := make(chan []byte, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // let the writer fill the buffer
		var b bytes.Buffer
		buf := make([]byte, 4096)
		for b.Len() < want.Len() {
			n, err := cli.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
			if b.Len()%(64<<10) < n {
				time.Sleep(time.Millisecond)
			}
		}
		got <- b.Bytes()
	}()
	if err := s.writeBuffers(segs); err != nil {
		t.Fatal(err)
	}
	if b := <-got; !bytes.Equal(b, want.Bytes()) {
		t.Fatalf("received %d bytes, want %d, or they differ", len(b), want.Len())
	}
	for i := range segs {
		if len(segs[i]) != len(heads[i]) || (len(segs[i]) > 0 && &segs[i][0] != &heads[i][0]) {
			t.Fatalf("writeBuffers modified segment %d", i)
		}
	}
	if pc.parks == 0 {
		t.Fatal("a writev past the socket buffer never parked")
	}
}
