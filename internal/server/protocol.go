// Package server is a TCP cache server speaking a memcached-compatible
// text-protocol subset (get/gets with multi-key, set, delete, touch, stats,
// noop, version, quit, plus the gete TTL-carrying get extension)
// over the sharded thread-safe caches in internal/concurrent. It exists to
// carry the paper's LRU-vs-lazy-promotion comparison from in-process
// microbenchmarks to served network traffic: the hit path stays exactly the
// inner cache's — a shared lock and at most one atomic metadata store — so
// the serving stack inherits "no locking for any cache operation on a hit"
// (§3–§4) end to end.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"

	"repro/internal/concurrent"
)

// Protocol limits, matching memcached's defaults where it has them.
const (
	// MaxKeyLen is memcached's key length limit.
	MaxKeyLen = 250
	// MaxKeysPerGet bounds multi-key get fan-out per request.
	MaxKeysPerGet = 64
	// DefaultMaxValueLen is the default per-object value limit (memcached's
	// classic 1 MiB).
	DefaultMaxValueLen = 1 << 20
)

// Version identifies this server implementation in `version` responses and
// the stats output.
const Version = "repro-cache/0.9"

// Op is a parsed command kind.
type Op uint8

// The supported commands.
const (
	OpInvalid Op = iota
	OpGet
	OpGets
	OpSet
	OpDelete
	OpStats
	OpQuit
	OpNoop
	OpVersion
	OpTouch
	// OpGete is the TTL-carrying get extension: single key, and the VALUE
	// header ends with the entry's cas and absolute expiry (unix seconds,
	// 0 = never). Hot-key replication reads through it so replica writes
	// can preserve the owner's TTL.
	OpGete
)

// ClientError is a recoverable protocol error: the connection stays in sync
// and the server reports it as a CLIENT_ERROR line.
type ClientError string

// Error implements error.
func (e ClientError) Error() string { return string(e) }

// ErrUnknownCommand reports an unrecognized command line; the server
// answers ERROR and keeps the connection.
var ErrUnknownCommand = errors.New("server: unknown command")

// ErrValueTooLarge reports a set whose data block exceeds the configured
// limit. The body has not been consumed, so the connection is out of sync
// and must be closed after reporting.
var ErrValueTooLarge = errors.New("server: object too large for cache")

// Request is one parsed client request. A Request is reused across
// ParseRequest calls to keep the hit path allocation-free: for get/gets the
// key slices point into the bufio.Reader's buffer and are valid only until
// the next read from the connection (the server always writes the response
// before reading again); for set/delete the key is copied into an internal
// buffer that survives reading the data block.
//
// Each key is hashed exactly once, at parse time: Digests[i] is the wide
// digest of Keys[i], threaded through dispatch into the KV store and its
// inner cache so no later layer re-hashes the key.
type Request struct {
	Op      Op
	Keys    [][]byte // get/gets: all keys; set/delete: Keys[0]
	Digests []uint64 // Digests[i] = concurrent.Digest(Keys[i])
	Flags   uint32
	Exptime int64
	NoReply bool
	Value   []byte // set payload; internal buffer, valid until next parse
	// StatsArg is the optional stats subcommand ("stats mrc"); it points
	// into the read buffer like get keys and is valid only until the next
	// parse. nil for a plain stats.
	StatsArg []byte

	keyStore []byte
	valBuf   []byte

	// outcome is the dispatch result code (Outcome* constants), read by the
	// connection tracer when the request is sampled into a span.
	outcome uint8
}

var (
	tokGet     = []byte("get")
	tokGets    = []byte("gets")
	tokSet     = []byte("set")
	tokDelete  = []byte("delete")
	tokStats   = []byte("stats")
	tokQuit    = []byte("quit")
	tokNoop    = []byte("noop")
	tokVersion = []byte("version")
	tokTouch   = []byte("touch")
	tokGete    = []byte("gete")
	tokNoReply = []byte("noreply")
)

// ParseRequest reads and parses one request from br into req. maxValueLen
// bounds set payloads (<=0 selects DefaultMaxValueLen). Errors are either
// recoverable (ClientError, ErrUnknownCommand — report and continue),
// desynchronizing (ErrValueTooLarge — report and close), or I/O errors
// (close silently). A ClientError is always returned bare, never wrapped.
func ParseRequest(br *bufio.Reader, req *Request, maxValueLen int) error {
	if maxValueLen <= 0 {
		maxValueLen = DefaultMaxValueLen
	}
	line, err := readLine(br)
	if err != nil {
		return err
	}
	req.Op = OpInvalid
	req.Keys = req.Keys[:0]
	req.Digests = req.Digests[:0]
	req.Flags = 0
	req.Exptime = 0
	req.NoReply = false
	req.Value = nil
	req.StatsArg = nil

	cmd, rest := nextToken(line)
	switch {
	case bytes.Equal(cmd, tokGet), bytes.Equal(cmd, tokGets):
		if bytes.Equal(cmd, tokGets) {
			req.Op = OpGets
		} else {
			req.Op = OpGet
		}
		for {
			var key []byte
			key, rest = nextToken(rest)
			if key == nil {
				break
			}
			if !validKey(key) {
				return ClientError("bad key")
			}
			if len(req.Keys) >= MaxKeysPerGet {
				return ClientError("too many keys in one request")
			}
			req.Keys = append(req.Keys, key)
			req.Digests = append(req.Digests, concurrent.Digest(key))
		}
		if len(req.Keys) == 0 {
			return ClientError("no keys")
		}
		return nil

	case bytes.Equal(cmd, tokSet):
		req.Op = OpSet
		return parseSet(br, req, rest, maxValueLen)

	case bytes.Equal(cmd, tokDelete):
		req.Op = OpDelete
		key, rest := nextToken(rest)
		if !validKey(key) {
			return ClientError("bad key")
		}
		req.keyStore = append(req.keyStore[:0], key...)
		req.Keys = append(req.Keys[:0], req.keyStore)
		req.Digests = append(req.Digests[:0], concurrent.Digest(key))
		if tok, _ := nextToken(rest); tok != nil {
			if !bytes.Equal(tok, tokNoReply) {
				return ClientError("bad command line format")
			}
			req.NoReply = true
		}
		return nil

	case bytes.Equal(cmd, tokTouch):
		// touch <key> <exptime> [noreply] — update the TTL in place. The
		// key is copied like delete's so the branch shapes stay uniform.
		req.Op = OpTouch
		key, rest := nextToken(rest)
		if !validKey(key) {
			return ClientError("bad key")
		}
		exptimeTok, rest := nextToken(rest)
		exptime, ok := parseInt(exptimeTok)
		if !ok {
			return ClientError("bad command line format")
		}
		req.keyStore = append(req.keyStore[:0], key...)
		req.Keys = append(req.Keys[:0], req.keyStore)
		req.Digests = append(req.Digests[:0], concurrent.Digest(key))
		req.Exptime = exptime
		if tok, _ := nextToken(rest); tok != nil {
			if !bytes.Equal(tok, tokNoReply) {
				return ClientError("bad command line format")
			}
			req.NoReply = true
		}
		return nil

	case bytes.Equal(cmd, tokGete):
		// gete <key> — single-key get whose VALUE header carries cas and
		// absolute expiry. The key aliases the read buffer like get's.
		req.Op = OpGete
		key, rest := nextToken(rest)
		if !validKey(key) {
			return ClientError("bad key")
		}
		if tok, _ := nextToken(rest); tok != nil {
			return ClientError("bad command line format")
		}
		req.Keys = append(req.Keys[:0], key)
		req.Digests = append(req.Digests[:0], concurrent.Digest(key))
		return nil

	case bytes.Equal(cmd, tokStats):
		req.Op = OpStats
		if tok, _ := nextToken(rest); tok != nil {
			req.StatsArg = tok
		}
		return nil

	case bytes.Equal(cmd, tokQuit):
		req.Op = OpQuit
		return nil

	case bytes.Equal(cmd, tokNoop):
		// Answered with NOOP: a fixed-size response pipelining clients can
		// use to delimit a batch without touching any key.
		req.Op = OpNoop
		return nil

	case bytes.Equal(cmd, tokVersion):
		req.Op = OpVersion
		return nil
	}
	return ErrUnknownCommand
}

// parseSet finishes `set <key> <flags> <exptime> <bytes> [noreply]` and
// reads the data block. The key is copied out of the line buffer because
// reading the block invalidates it.
func parseSet(br *bufio.Reader, req *Request, rest []byte, maxValueLen int) error {
	key, rest := nextToken(rest)
	if !validKey(key) {
		return ClientError("bad key")
	}
	flagsTok, rest := nextToken(rest)
	exptimeTok, rest := nextToken(rest)
	bytesTok, rest := nextToken(rest)
	flags, ok1 := parseUint(flagsTok, 1<<32-1)
	exptime, ok2 := parseInt(exptimeTok)
	n, ok3 := parseUint(bytesTok, 1<<62)
	if !ok1 || !ok2 || !ok3 {
		return ClientError("bad command line format")
	}
	if tok, _ := nextToken(rest); tok != nil {
		if !bytes.Equal(tok, tokNoReply) {
			return ClientError("bad command line format")
		}
		req.NoReply = true
	}
	if n > uint64(maxValueLen) {
		return ErrValueTooLarge
	}
	req.keyStore = append(req.keyStore[:0], key...)
	req.Keys = append(req.Keys[:0], req.keyStore)
	req.Digests = append(req.Digests[:0], concurrent.Digest(key))
	req.Flags = uint32(flags)
	req.Exptime = exptime

	need := int(n) + 2
	if cap(req.valBuf) < need {
		req.valBuf = make([]byte, need)
	}
	buf := req.valBuf[:need]
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	if buf[need-2] != '\r' || buf[need-1] != '\n' {
		return ClientError("bad data chunk")
	}
	req.Value = buf[:need-2]
	return nil
}

// readLine returns the next line without its CRLF. Lines longer than the
// reader's buffer are drained and reported as a recoverable ClientError.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil {
		line = line[:len(line)-1]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		return line, nil
	}
	if err == bufio.ErrBufferFull {
		for err == bufio.ErrBufferFull {
			_, err = br.ReadSlice('\n')
		}
		if err != nil {
			return nil, err
		}
		return nil, ClientError("command line too long")
	}
	return nil, err
}

// nextToken splits off the next space-delimited token, skipping runs of
// spaces. A nil token means the line is exhausted.
func nextToken(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && line[i] == ' ' {
		i++
	}
	if i == len(line) {
		return nil, nil
	}
	j := i
	for j < len(line) && line[j] != ' ' {
		j++
	}
	return line[i:j], line[j:]
}

// validKey enforces memcached's key rules: 1..250 bytes, no whitespace or
// control characters.
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return false
	}
	for _, c := range k {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// parseUint parses a decimal integer bounded by limit.
func parseUint(b []byte, limit uint64) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		nv := v*10 + uint64(c-'0')
		if nv < v || nv > limit {
			return 0, false
		}
		v = nv
	}
	return v, true
}

// respWriter is the response sink dispatch writes into: the connection's
// multiBuf assembler, which flushes with writev (tests substitute a
// bufio.Writer). Both honor the bufio AvailableBuffer contract (appending
// into the returned slice and Writing the result extends the buffer in
// place), which is what keeps the hit path allocation-free.
type respWriter interface {
	io.Writer
	io.StringWriter
	io.ByteWriter
	AvailableBuffer() []byte
}

// Response writers. All write into the connection's response writer;
// numbers are appended via the writer's AvailableBuffer so the hit path
// allocates nothing.

// appendValueHeader appends "VALUE <key> <flags> <len>[ <cas>]\r\n" to dst
// and returns the extended slice.
func appendValueHeader(dst, key []byte, flags uint32, vlen int, cas uint64, withCAS bool) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(vlen), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cas, 10)
	}
	return append(dst, '\r', '\n')
}

// appendGetHeader and appendGetsHeader adapt appendValueHeader to
// concurrent.HitHeaderFunc. They are package-level functions, not closures,
// so passing them into KV.AppendHit costs no allocation on the hit path.
func appendGetHeader(dst, key []byte, vlen int, flags uint32, cas uint64) []byte {
	return appendValueHeader(dst, key, flags, vlen, cas, false)
}

func appendGetsHeader(dst, key []byte, vlen int, flags uint32, cas uint64) []byte {
	return appendValueHeader(dst, key, flags, vlen, cas, true)
}

// geteHeader returns a HitHeaderFunc rendering the extended VALUE header
// "VALUE <key> <flags> <len> <cas> <exptime>\r\n" of a gete response. It
// closes over the expiry (read in a separate store operation), which
// allocates — acceptable for a replication-rate command, unlike the
// get/gets hot path and its package-level header funcs.
func geteHeader(expireAt int64) concurrent.HitHeaderFunc {
	return func(dst, key []byte, vlen int, flags uint32, cas uint64) []byte {
		dst = appendValueHeader(dst, key, flags, vlen, cas, true)
		dst = dst[:len(dst)-2] // re-open the header to append the expiry
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, expireAt, 10)
		return append(dst, '\r', '\n')
	}
}

func writeEnd(bw respWriter)    { bw.WriteString("END\r\n") }
func writeStored(bw respWriter) { bw.WriteString("STORED\r\n") }

func writeClientError(bw respWriter, msg string) {
	bw.WriteString("CLIENT_ERROR ")
	bw.WriteString(msg)
	bw.WriteString("\r\n")
}

func writeServerError(bw respWriter, msg string) {
	bw.WriteString("SERVER_ERROR ")
	bw.WriteString(msg)
	bw.WriteString("\r\n")
}

// writeStat emits one STAT line of a stats response.
func writeStat(bw respWriter, name string, v int64) {
	bw.WriteString("STAT ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), v, 10))
	bw.WriteString("\r\n")
}

func writeStatString(bw respWriter, name, v string) {
	bw.WriteString("STAT ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(v)
	bw.WriteString("\r\n")
}

// writeStatFloat emits one STAT line with a fixed-precision float value
// (the mrc subcommand's ratios and rates).
func writeStatFloat(bw respWriter, name string, v float64, prec int) {
	bw.WriteString("STAT ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.Write(strconv.AppendFloat(bw.AvailableBuffer(), v, 'f', prec, 64))
	bw.WriteString("\r\n")
}

// parseInt parses a decimal integer with an optional leading minus
// (memcached allows negative exptimes).
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	v, ok := parseUint(b, 1<<62)
	if !ok {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}
