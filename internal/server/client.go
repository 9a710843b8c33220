package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/overload"
)

// ErrServerBusy is the answer to a request the server shed under overload.
// It is a protocol-level response, not a transport failure: the connection
// is healthy and the server chose not to do the work, so the client never
// retries it (a retry against an overloaded server is fuel on the fire).
// Callers distinguish it with errors.Is and decide whether to degrade
// (serve a miss, drop the write) or surface the pressure.
var ErrServerBusy = errors.New("server: busy (request shed under overload)")

// busyPrefix matches the server's shed reply. The reply line carries the
// reason ("SERVER_ERROR busy"), matched by prefix so future servers can
// append detail without breaking old clients.
var busyPrefix = []byte("SERVER_ERROR busy")

// DialConfig parameterizes a self-healing Client: per-operation deadlines,
// automatic reconnect with capped exponential backoff plus jitter, and a
// retry policy tuned per command class.
//
// The retry policy: gets are idempotent and retried up to MaxRetries times
// across reconnects. Sets and deletes are replayed at most once after a
// reconnect — a mutation whose response was lost may or may not have been
// applied, and one replay converges the cache either way without letting a
// flapping link hammer the same write forever. Protocol-level errors (the
// server answered, just not what we expected) are never retried: the
// connection is healthy and the answer is real.
type DialConfig struct {
	// Addr is the server address.
	Addr string
	// ConnectTimeout bounds each dial. <=0 means 5 seconds.
	ConnectTimeout time.Duration
	// ReadTimeout bounds each response read; 0 means no deadline. The
	// deadline is re-armed lazily, at most once per quarter timeout, so an
	// unanswered operation fails no earlier than ReadTimeout and no later
	// than 1.25·ReadTimeout after it was sent.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request flush, within the same
	// [WriteTimeout, 1.25·WriteTimeout]; 0 means no deadline.
	WriteTimeout time.Duration
	// MaxRetries is the number of additional attempts after a transport
	// failure (gets; dials use it too). 0 disables retrying entirely, which
	// is the plain Dial behavior.
	MaxRetries int
	// BackoffBase and BackoffMax bound the reconnect backoff: attempt n
	// sleeps a uniform jittered duration in (0, min(Base<<(n-1), Max)].
	// <=0 means 5ms base, 1s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed fixes the jitter stream, keeping load runs reproducible.
	Seed int64
	// Budget, when non-nil, gates every retry (including initial-dial
	// retries) through a shared token bucket: each completed operation
	// deposits a fraction of a token, each retry withdraws a whole one.
	// Under a healthy server the bucket stays full and retries flow; under
	// a broken one the bucket drains and the client fails fast instead of
	// amplifying the outage. Share one budget across all clients talking
	// to the same backend. nil means retries are bounded only by
	// MaxRetries (the per-request cap).
	Budget *overload.RetryBudget
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 5 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	return cfg
}

// Client is a minimal text-protocol client for the subset this server
// speaks. It is synchronous and not safe for concurrent use; open one per
// goroutine (the closed-loop shape RunLoad uses). Built through
// DialWithConfig it self-heals: transport failures close the connection,
// and the next attempt reconnects with backoff and replays per the retry
// policy.
type Client struct {
	cfg  DialConfig
	conn net.Conn
	dl   lazyDeadlines // conn's deadlines; a reconnect starts them afresh
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
	rng  *rand.Rand

	retries    atomic.Int64
	reconnects atomic.Int64
}

// Dial connects to a cache server at addr with no deadlines and no retry
// policy: any transport error surfaces immediately.
func Dial(addr string) (*Client, error) {
	return DialWithConfig(DialConfig{Addr: addr})
}

// DialWithConfig connects under cfg. The initial dial honors the retry
// budget too: a client configured to survive a server restart also
// survives starting before its server is up.
func DialWithConfig(cfg DialConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	err := c.connect()
	for attempt := 1; err != nil && attempt <= cfg.MaxRetries; attempt++ {
		if !cfg.Budget.Withdraw() {
			break
		}
		c.retries.Add(1)
		c.backoff(attempt)
		err = c.connect()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Retries reports transport-failure retry attempts (including reconnect
// attempts that themselves failed); Reconnects reports connections
// re-established after the first.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Reconnects reports how many times the client re-established its
// connection after a transport failure.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// connect dials and (re)binds the buffered reader and writer. The bufio
// pair is reused across reconnects, which also discards any half-read
// response bytes from the dead connection.
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.ConnectTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.dl = newLazyDeadlines(conn, c.cfg.ReadTimeout, c.cfg.WriteTimeout)
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 32<<10)
		c.bw = bufio.NewWriterSize(conn, 32<<10)
	} else {
		c.br.Reset(conn)
		c.bw.Reset(conn)
	}
	return nil
}

// reconnect replaces a broken connection.
func (c *Client) reconnect() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if err := c.connect(); err != nil {
		return err
	}
	c.reconnects.Add(1)
	return nil
}

// markBroken closes a connection a transport error poisoned; the next
// attempt (or the caller's next op) reconnects.
func (c *Client) markBroken() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// backoff sleeps the jittered exponential pause before retry n (1-based).
func (c *Client) backoff(attempt int) {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	// Full jitter: uncorrelated clients reconnecting after one server
	// restart must not stampede in lockstep.
	time.Sleep(time.Duration(1 + c.rng.Int63n(int64(d))))
}

// IsTransportErr reports whether err came from the connection rather than
// the protocol — the class of errors a reconnect can heal. The cluster
// layer uses the same test to decide what counts as a node failure: a
// protocol error means the node answered (healthy, just unhelpful), while
// a transport error feeds its circuit breaker and failure detector.
func IsTransportErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// do runs op under the retry policy: up to maxAttempts tries, reconnecting
// (with backoff after the first) before each retry. Non-transport errors
// return immediately. Every retry must also win a token from the shared
// retry budget (when configured); a completed op — success or protocol
// error, either way the server answered — deposits back into it.
func (c *Client) do(maxAttempts int, op func() error) error {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if !c.cfg.Budget.Withdraw() {
				return err
			}
			c.retries.Add(1)
			c.backoff(attempt)
		}
		if c.conn == nil {
			// Healing a connection a previous op broke: not a retry of this
			// op, so no backoff charge on attempt 0.
			if err = c.reconnect(); err != nil {
				continue
			}
		}
		if err = op(); err == nil {
			c.cfg.Budget.Deposit()
			return nil
		}
		// Only a busy shed is a whole reply: any other error may leave
		// bytes of this reply unread, so the next call starts on a new
		// connection instead of reading them as its own.
		if err != ErrServerBusy {
			c.markBroken()
		}
		if !IsTransportErr(err) {
			c.cfg.Budget.Deposit()
			return err
		}
	}
	return err
}

// getAttempts is the idempotent-op budget; mutateAttempts allows one replay
// after a reconnect, and only when retrying is enabled at all.
func (c *Client) getAttempts() int { return 1 + c.cfg.MaxRetries }

func (c *Client) mutateAttempts() int {
	if c.cfg.MaxRetries == 0 {
		return 1
	}
	return 2
}

// flush keeps the write deadline armed and pushes the buffered request out.
func (c *Client) flush() error {
	c.dl.armWrite()
	return c.bw.Flush()
}

// Close sends quit, flushes it, and closes the connection, surfacing any
// flush or close error. It is safe on an already-broken client (one whose
// connection a failed op closed) and on repeated calls: both report nil.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	c.bw.WriteString("quit\r\n")
	flushErr := c.flush()
	closeErr := c.conn.Close()
	c.conn = nil
	return errors.Join(flushErr, closeErr)
}

// Get fetches one key, returning (value, found). The returned slice is
// owned by the caller.
func (c *Client) Get(key []byte) (value []byte, found bool, err error) {
	var res [1]MultiValue
	err = c.do(c.getAttempts(), func() error { return c.getOnce("get", [][]byte{key}, res[:], nil) })
	return res[0].Value, res[0].Found, err
}

// GetWith fetches one key along with its stored flags and cas token (it
// issues a gets). It exists for proxies: a router re-serving a backend's
// object must carry the backend's metadata through unchanged.
func (c *Client) GetWith(key []byte) (value []byte, flags uint32, cas uint64, found bool, err error) {
	var res [1]MultiValue
	err = c.do(c.getAttempts(), func() error { return c.getOnce("gets", [][]byte{key}, res[:], nil) })
	return res[0].Value, res[0].Flags, res[0].CAS, res[0].Found, err
}

// GetExp fetches one key via gete, returning the stored metadata plus the
// absolute expiry deadline in unix seconds (0 = never expires). Proxies
// replicating an object to another node read through it so the copy can
// carry the owner's real TTL instead of an immortal one.
func (c *Client) GetExp(key []byte) (value []byte, flags uint32, cas uint64, expireAt int64, found bool, err error) {
	var res [1]MultiValue
	err = c.do(c.getAttempts(), func() error { return c.getOnce("gete", [][]byte{key}, res[:], &expireAt) })
	return res[0].Value, res[0].Flags, res[0].CAS, expireAt, res[0].Found, err
}

// MultiValue is one key's result in a GetMulti batch.
type MultiValue struct {
	// Value is the stored bytes, owned by the caller; nil on a miss.
	Value []byte
	Flags uint32
	CAS   uint64
	Found bool
}

// GetMulti fetches keys as pipelined multi-key gets (one request per
// MaxKeysPerGet chunk), returning per-key results in request order. It is
// the fan-out unit the cluster client batches per node: many keys, one
// round trip. Retries follow the idempotent-get budget per chunk.
func (c *Client) GetMulti(keys [][]byte) ([]MultiValue, error) {
	out := make([]MultiValue, len(keys))
	for start := 0; start < len(keys); start += MaxKeysPerGet {
		end := min(start+MaxKeysPerGet, len(keys))
		chunk, res := keys[start:end], out[start:end]
		err := c.do(c.getAttempts(), func() error { return c.getOnce("gets", chunk, res, nil) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// getOnce sends one `verb key...` request and reads the VALUE…END reply
// into out, one slot per key. The server answers hits in request order, so
// each VALUE header fills the next requested key of its name, and a key
// asked for twice is answered twice. For gete, expireAt receives the
// header's fifth token, the absolute expiry.
func (c *Client) getOnce(verb string, keys [][]byte, out []MultiValue, expireAt *int64) error {
	// A retried request starts over; clear anything a broken attempt filled.
	clear(out)
	c.buf = append(c.buf[:0], verb...)
	for _, k := range keys {
		c.buf = append(c.buf, ' ')
		c.buf = append(c.buf, k...)
	}
	c.buf = append(c.buf, "\r\n"...)
	if _, err := c.bw.Write(c.buf); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	c.dl.armRead()
	next := 0
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		switch {
		case bytes.Equal(line, []byte("END")):
			return nil
		case bytes.HasPrefix(line, []byte("VALUE ")):
			key, flags, n, cas, err := parseValueHeader(line)
			if err != nil {
				return err
			}
			if expireAt != nil {
				// "VALUE <key> <flags> <bytes> <cas> <exptime>": the plain
				// header parser ignores tokens past cas.
				rest := line[len("VALUE "):]
				for i := 0; i < 4; i++ {
					_, rest = nextToken(rest)
				}
				tok, _ := nextToken(rest)
				exp, ok := parseInt(tok)
				if tok == nil || !ok {
					return fmt.Errorf("server: bad exptime in %q", line)
				}
				*expireAt = exp
			}
			// key aliases the read buffer: match it before reading the value.
			i := next
			for i < len(keys) && !bytes.Equal(keys[i], key) {
				i++
			}
			if i == len(keys) {
				return fmt.Errorf("server: unrequested key %q in %s response", key, verb)
			}
			next = i + 1
			value := make([]byte, n+2)
			if _, err := io.ReadFull(c.br, value); err != nil {
				return err
			}
			out[i] = MultiValue{Value: value[:n], Flags: flags, CAS: cas, Found: true}
		case bytes.HasPrefix(line, busyPrefix):
			return ErrServerBusy
		default:
			return fmt.Errorf("server: unexpected %s response %q", verb, line)
		}
	}
}

// Set stores value under key with no expiry.
func (c *Client) Set(key []byte, flags uint32, value []byte) error {
	return c.SetExp(key, flags, 0, value)
}

// SetExp stores value under key with a wire exptime, per the memcached
// contract: 0 never expires, up to 30 days is a relative TTL in seconds,
// larger values are absolute unix timestamps.
func (c *Client) SetExp(key []byte, flags uint32, exptime int64, value []byte) error {
	return c.do(c.mutateAttempts(), func() error { return c.setOnce(key, flags, exptime, value) })
}

func (c *Client) setOnce(key []byte, flags uint32, exptime int64, value []byte) error {
	c.buf = append(c.buf[:0], "set "...)
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, ' ')
	c.buf = strconv.AppendUint(c.buf, uint64(flags), 10)
	c.buf = append(c.buf, ' ')
	c.buf = strconv.AppendInt(c.buf, exptime, 10)
	c.buf = append(c.buf, ' ')
	c.buf = strconv.AppendInt(c.buf, int64(len(value)), 10)
	c.buf = append(c.buf, "\r\n"...)
	if _, err := c.bw.Write(c.buf); err != nil {
		return err
	}
	if _, err := c.bw.Write(value); err != nil {
		return err
	}
	if _, err := c.bw.WriteString("\r\n"); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	c.dl.armRead()
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(line, []byte("STORED")) {
		if bytes.HasPrefix(line, busyPrefix) {
			return ErrServerBusy
		}
		return fmt.Errorf("server: set: %q", line)
	}
	return nil
}

// Delete removes key, reporting whether the server had it.
func (c *Client) Delete(key []byte) (found bool, err error) {
	err = c.do(c.mutateAttempts(), func() error {
		var e error
		found, e = c.deleteOnce(key)
		return e
	})
	return found, err
}

func (c *Client) deleteOnce(key []byte) (bool, error) {
	c.buf = append(c.buf[:0], "delete "...)
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, "\r\n"...)
	if _, err := c.bw.Write(c.buf); err != nil {
		return false, err
	}
	if err := c.flush(); err != nil {
		return false, err
	}
	c.dl.armRead()
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(line, []byte("DELETED")):
		return true, nil
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return false, nil
	case bytes.HasPrefix(line, busyPrefix):
		return false, ErrServerBusy
	}
	return false, fmt.Errorf("server: delete: %q", line)
}

// Touch refreshes key's TTL without transferring its value, reporting
// whether the server had a live entry. exptime follows the memcached wire
// contract (0 never expires, ≤30 days relative, else absolute unix time).
// Touch follows the mutation retry policy: one replay after a reconnect.
func (c *Client) Touch(key []byte, exptime int64) (found bool, err error) {
	err = c.do(c.mutateAttempts(), func() error {
		var e error
		found, e = c.touchOnce(key, exptime)
		return e
	})
	return found, err
}

func (c *Client) touchOnce(key []byte, exptime int64) (bool, error) {
	c.buf = append(c.buf[:0], "touch "...)
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, ' ')
	c.buf = strconv.AppendInt(c.buf, exptime, 10)
	c.buf = append(c.buf, "\r\n"...)
	if _, err := c.bw.Write(c.buf); err != nil {
		return false, err
	}
	if err := c.flush(); err != nil {
		return false, err
	}
	c.dl.armRead()
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(line, []byte("TOUCHED")):
		return true, nil
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return false, nil
	case bytes.HasPrefix(line, busyPrefix):
		return false, ErrServerBusy
	}
	return false, fmt.Errorf("server: touch: %q", line)
}

// Version asks the server to identify itself. It is the health probe the
// cluster failure detector sends: no key access, a fixed-size answer, and
// never retried — a probe exists to measure the transport, and a retry
// loop would measure the retry loop instead.
func (c *Client) Version() (string, error) {
	var v string
	err := c.do(1, func() error {
		if _, err := c.bw.WriteString("version\r\n"); err != nil {
			return err
		}
		if err := c.flush(); err != nil {
			return err
		}
		c.dl.armRead()
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(line, []byte("VERSION ")) {
			return fmt.Errorf("server: unexpected version response %q", line)
		}
		v = string(line[len("VERSION "):])
		return nil
	})
	return v, err
}

// Stats fetches the server's stats as a name→value map. Stats is read-only
// but not retried: it is a diagnostic, and a heal here would mask the very
// failure being diagnosed.
func (c *Client) Stats() (stats map[string]string, err error) {
	return c.StatsArg("")
}

// StatsArg fetches a stats subcommand ("mrc" → `stats mrc`); an empty arg
// is the plain stats. A CLIENT_ERROR answer (older server, unknown
// subcommand) is returned as an error with an empty map.
func (c *Client) StatsArg(arg string) (stats map[string]string, err error) {
	err = c.do(1, func() error {
		var e error
		stats, e = c.statsOnce(arg)
		return e
	})
	return stats, err
}

func (c *Client) statsOnce(arg string) (map[string]string, error) {
	cmd := "stats\r\n"
	if arg != "" {
		cmd = "stats " + arg + "\r\n"
	}
	if _, err := c.bw.WriteString(cmd); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	c.dl.armRead()
	out := make(map[string]string)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return out, nil
		}
		fields := bytes.SplitN(line, []byte(" "), 3)
		if len(fields) != 3 || !bytes.Equal(fields[0], []byte("STAT")) {
			return nil, fmt.Errorf("server: unexpected stats line %q", line)
		}
		out[string(fields[1])] = string(fields[2])
	}
}

// StatInt reads one numeric stat from a Stats map.
func StatInt(stats map[string]string, name string) (int64, error) {
	v, ok := stats[name]
	if !ok {
		return 0, fmt.Errorf("server: stat %q missing", name)
	}
	return strconv.ParseInt(v, 10, 64)
}

// StatFloat reads one float stat from a Stats map (the mrc subcommand's
// rates and ratios).
func StatFloat(stats map[string]string, name string) (float64, error) {
	v, ok := stats[name]
	if !ok {
		return 0, fmt.Errorf("server: stat %q missing", name)
	}
	return strconv.ParseFloat(v, 64)
}

func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// parseValueHeader parses "VALUE <key> <flags> <bytes> [<cas>]". It
// tolerates arbitrary junk (a resilient client sees truncated and
// corrupted streams), answering with an error instead of panicking.
func parseValueHeader(line []byte) (key []byte, flags uint32, n int, cas uint64, err error) {
	if !bytes.HasPrefix(line, []byte("VALUE ")) {
		return nil, 0, 0, 0, fmt.Errorf("server: bad VALUE header %q", line)
	}
	rest := line[len("VALUE "):]
	key, rest = nextToken(rest)
	flagsTok, rest := nextToken(rest)
	bytesTok, rest := nextToken(rest)
	casTok, _ := nextToken(rest)
	f, ok1 := parseUint(flagsTok, 1<<32-1)
	b, ok2 := parseUint(bytesTok, 1<<31)
	if key == nil || !ok1 || !ok2 {
		return nil, 0, 0, 0, fmt.Errorf("server: bad VALUE header %q", line)
	}
	if casTok != nil {
		c, ok := parseUint(casTok, 1<<63)
		if !ok {
			return nil, 0, 0, 0, fmt.Errorf("server: bad cas in %q", line)
		}
		cas = c
	}
	return key, uint32(f), int(b), cas, nil
}
