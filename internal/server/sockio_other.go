//go:build !linux

package server

import (
	"io"
	"net"
)

// sockio without the raw path: plain Read and Write, and net.Buffers'
// writev (sequential writes for anything but a net conn).
type sockio struct {
	rw   io.ReadWriter
	bufs net.Buffers // WriteTo consumes its receiver, which must not be a stack local
}

func newSockIO(rw io.ReadWriter) *sockio { return &sockio{rw: rw} }

func (s *sockio) Read(p []byte) (int, error)  { return s.rw.Read(p) }
func (s *sockio) Write(p []byte) (int, error) { return s.rw.Write(p) }

func (s *sockio) writeBuffers(segs [][]byte) error {
	s.bufs = segs
	_, err := s.bufs.WriteTo(s.rw)
	return err
}
