//go:build linux

package server

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// iovMax is Linux's IOV_MAX: one writev takes at most this many segments.
const iovMax = 1024

// sockio is one connection's byte stream as the served path and Client
// use it: Read under a bufio.Reader, Write under a bufio.Writer, and
// writeBuffers for multiBuf's segment list.
//
// On a *net.TCPConn the bytes move through raw read/write/writev inside
// SyscallConn's callbacks. The fd is non-blocking, so none of these calls
// can sleep in the kernel; RawSyscall skips the scheduler's
// entersyscall/exitsyscall, which is what wakes a parked sysmon on an idle
// process's next request and lets sysmon hand the P to another thread when
// a write is preempted. EAGAIN returns false from the callback and the
// netpoller parks the goroutine exactly as conn.Read and conn.Write do, so
// deadlines, Close and Shutdown's drain wake-up act through the same
// pollDesc as before.
//
// The raw path is chosen by concrete type, never through syscall.Conn: a
// wrapper that embeds a TCP conn (a chaos.Conn, say) keeps its own Read
// and Write, and any other stream takes the plain path.
type sockio struct {
	rw   io.ReadWriter
	bufs net.Buffers // plain writeBuffers: WriteTo consumes its receiver, which must not be a stack local

	tc *net.TCPConn    // non-nil on the raw path
	rc syscall.RawConn // tc's, taken once
	// The callbacks, bound once as method values: a closure made per call
	// would allocate.
	readFn, writeFn, writevFn func(fd uintptr) bool

	// One raw call's arguments and results, shared with its callback.
	p    []byte
	segs [][]byte
	off  int // bytes of segs[0] already written
	iov  []syscall.Iovec
	n    int
	err  error
}

func newSockIO(rw io.ReadWriter) *sockio {
	s := &sockio{rw: rw}
	tc, ok := rw.(*net.TCPConn)
	if !ok {
		return s
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return s
	}
	s.tc, s.rc = tc, rc
	s.readFn, s.writeFn, s.writevFn = s.readRaw, s.writeRaw, s.writevRaw
	return s
}

func (s *sockio) Read(p []byte) (int, error) {
	if s.rc == nil {
		return s.rw.Read(p)
	}
	if len(p) == 0 {
		return 0, nil
	}
	s.p, s.n, s.err = p, 0, nil
	if err := s.rc.Read(s.readFn); err != nil {
		s.err = err // a deadline or Close, already a *net.OpError
	}
	s.p = nil
	if s.err == nil && s.n == 0 {
		return 0, io.EOF
	}
	return s.n, s.err
}

func (s *sockio) Write(p []byte) (int, error) {
	if s.rc == nil {
		return s.rw.Write(p)
	}
	s.p, s.n, s.err = p, 0, nil
	if err := s.rc.Write(s.writeFn); err != nil {
		s.err = err
	}
	s.p = nil
	return s.n, s.err
}

// writeBuffers writes every segment, in order, with as few writev calls as
// IOV_MAX and the socket buffer allow. segs is not modified.
func (s *sockio) writeBuffers(segs [][]byte) error {
	if s.rc == nil {
		s.bufs = segs
		_, err := s.bufs.WriteTo(s.rw)
		return err
	}
	s.segs, s.off, s.err = segs, 0, nil
	if err := s.rc.Write(s.writevFn); err != nil {
		s.err = err
	}
	s.segs = nil
	return s.err
}

// fail records a failed syscall the way conn.Read and conn.Write report
// it, so callers classify it as a net.Error. It returns true: the callback
// is done.
func (s *sockio) fail(op string, e syscall.Errno) bool {
	s.err = &net.OpError{Op: op, Net: "tcp", Source: s.tc.LocalAddr(), Addr: s.tc.RemoteAddr(), Err: os.NewSyscallError(op, e)}
	return true
}

func (s *sockio) readRaw(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&s.p[0])), uintptr(len(s.p)))
		switch e {
		case 0:
			s.n = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			return s.fail("read", e)
		}
	}
}

func (s *sockio) writeRaw(fd uintptr) bool {
	for s.n < len(s.p) {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&s.p[s.n])), uintptr(len(s.p)-s.n))
		switch {
		case e == syscall.EINTR:
		case e == syscall.EAGAIN:
			return false
		case e != 0:
			return s.fail("write", e)
		case n == 0:
			s.err = io.ErrUnexpectedEOF // as conn.Write reports it
			return true
		default:
			s.n += int(n)
		}
	}
	return true
}

func (s *sockio) writevRaw(fd uintptr) bool {
	for {
		iov := s.iov[:0]
		skip := s.off
		for _, b := range s.segs {
			if len(iov) == iovMax {
				break
			}
			b, skip = b[skip:], 0
			if len(b) == 0 {
				continue
			}
			v := syscall.Iovec{Base: &b[0]}
			v.SetLen(len(b))
			iov = append(iov, v)
		}
		s.iov = iov
		if len(iov) == 0 {
			return true
		}
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		clear(iov) // pin no segment past this call: the next flush may not reach this far
		switch {
		case e == syscall.EINTR:
		case e == syscall.EAGAIN:
			return false
		case e != 0:
			return s.fail("writev", e)
		case n == 0:
			s.err = io.ErrUnexpectedEOF
			return true
		default:
			s.consume(int(n))
		}
	}
}

// consume drops n written bytes off the front of segs.
func (s *sockio) consume(n int) {
	for n > 0 {
		rem := len(s.segs[0]) - s.off
		if n < rem {
			s.off += n
			return
		}
		n -= rem
		s.segs, s.off = s.segs[1:], 0
	}
}
