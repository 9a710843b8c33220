package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The load generator speaks the memcached text protocol itself rather than
// through the repository's client, so that a change to that client cannot
// move the server's numbers, and so that requests can be pipelined.

type wireConn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	num [20]byte
}

const wireTimeout = 30 * time.Second

func newWire(nc net.Conn) *wireConn {
	return &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10)}
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return newWire(nc), nil
}

func (c *wireConn) close() { c.nc.Close() }

func (c *wireConn) writeGet(key []byte) {
	c.bw.WriteString("get ")
	c.bw.Write(key)
	c.bw.WriteString("\r\n")
}

func (c *wireConn) writeSet(key, value []byte) {
	c.bw.WriteString("set ")
	c.bw.Write(key)
	c.bw.WriteString(" 0 0 ")
	c.bw.Write(strconv.AppendInt(c.num[:0], int64(len(value)), 10))
	c.bw.WriteString("\r\n")
	c.bw.Write(value)
	c.bw.WriteString("\r\n")
}

// flush sends what was written; a stuck peer fails the run instead of
// hanging it.
func (c *wireConn) flush() error {
	c.nc.SetDeadline(time.Now().Add(wireTimeout))
	return c.bw.Flush()
}

// refused is a reply by which the server declined a request (ERROR,
// CLIENT_ERROR, SERVER_ERROR). The stream stays in sync, so the op counts
// as failed and the run goes on.
type refused string

func (r refused) Error() string { return "refused: " + string(r) }

func isRefused(err error) bool {
	var r refused
	return errors.As(err, &r)
}

func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		return line[:n-2], nil
	}
	return nil, fmt.Errorf("reply line without CRLF: %q", line)
}

func refusal(line []byte) error {
	for _, p := range []string{"SERVER_ERROR", "CLIENT_ERROR", "ERROR"} {
		if bytes.HasPrefix(line, []byte(p)) {
			return refused(line)
		}
	}
	return fmt.Errorf("unexpected reply %q", line)
}

var (
	lineEnd    = []byte("END")
	lineStored = []byte("STORED")
	valueWord  = []byte("VALUE ")
)

// readGetReply reads the reply to a single-key get: either END (a miss) or
// VALUE <key> <flags> <bytes>, the data block, and END. The value is
// appended to dst[:0].
func readGetReply(br *bufio.Reader, key, dst []byte) (value []byte, hit bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return dst[:0], false, err
	}
	if bytes.Equal(line, lineEnd) {
		return dst[:0], false, nil
	}
	if !bytes.HasPrefix(line, valueWord) {
		return dst[:0], false, refusal(line)
	}
	f := bytes.Fields(line[len(valueWord):])
	if len(f) < 3 || !bytes.Equal(f[0], key) {
		return dst[:0], false, fmt.Errorf("VALUE line %q does not answer key %q", line, key)
	}
	n, err := strconv.Atoi(string(f[2]))
	if err != nil || n < 0 {
		return dst[:0], false, fmt.Errorf("bad length in %q", line)
	}
	if cap(dst) < n+2 {
		dst = make([]byte, n+2)
	}
	dst = dst[:n+2]
	if _, err := io.ReadFull(br, dst); err != nil {
		return dst[:0], false, err
	}
	if dst[n] != '\r' || dst[n+1] != '\n' {
		return dst[:0], false, fmt.Errorf("data block of %q not closed by CRLF", key)
	}
	if line, err = readLine(br); err != nil {
		return dst[:0], false, err
	}
	if !bytes.Equal(line, lineEnd) {
		return dst[:0], false, fmt.Errorf("expected END after value, got %q", line)
	}
	return dst[:n], true, nil
}

func readStored(br *bufio.Reader) error {
	line, err := readLine(br)
	if err != nil {
		return err
	}
	if !bytes.Equal(line, lineStored) {
		return refusal(line)
	}
	return nil
}

// version is the health probe: it needs no admin port.
func (c *wireConn) version() error {
	c.bw.WriteString("version\r\n")
	if err := c.flush(); err != nil {
		return err
	}
	line, err := readLine(c.br)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("VERSION ")) {
		return fmt.Errorf("unexpected version reply %q", line)
	}
	return nil
}

// stats returns the server's STAT lines.
func (c *wireConn) stats() (map[string]string, error) {
	c.bw.WriteString("stats\r\n")
	if err := c.flush(); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for {
		line, err := readLine(c.br)
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, lineEnd) {
			return out, nil
		}
		f := bytes.Fields(line)
		if len(f) != 3 || string(f[0]) != "STAT" {
			return nil, fmt.Errorf("unexpected stats line %q", line)
		}
		out[string(f[1])] = string(f[2])
	}
}

// statInt reads one integer stat; an absent stat (the limiter's, when the
// limiter is off) is 0.
func statInt(st map[string]string, name string) int64 {
	v, _ := strconv.ParseInt(st[name], 10, 64)
	return v
}
