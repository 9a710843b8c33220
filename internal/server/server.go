package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/mrc"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe (e.g. ":11211").
	Addr string
	// Store is the byte-value cache being served (normally a
	// *concurrent.KV). Required.
	Store Store
	// MaxConns bounds concurrent client connections; excess connections
	// are answered with SERVER_ERROR and closed. <=0 means 1024.
	MaxConns int
	// IdleTimeout closes connections with no complete request for this
	// long. <=0 means 5 minutes. Deadlines are re-armed lazily, at most
	// once per quarter timeout, so the close comes no earlier than
	// IdleTimeout and no later than 1.25·IdleTimeout after the last byte.
	IdleTimeout time.Duration
	// WriteTimeout bounds each flush of buffered responses to the socket.
	// A reader that cannot drain its responses within it is a slow (or
	// stalled) client holding server memory hostage; the connection is
	// closed and counted in conns_slow_closed. <=0 means 30 seconds. The
	// same contract: a stalled flush is given at least WriteTimeout and
	// at most 1.25·WriteTimeout.
	WriteTimeout time.Duration
	// MaxValueLen bounds set payloads. <=0 means DefaultMaxValueLen.
	MaxValueLen int
	// Logger, if set, receives the server's structured diagnostics; with
	// none they are discarded.
	Logger *slog.Logger
	// Metrics, if set, receives the server's instruments (per-command
	// request counters and latency histograms, transport counters, and the
	// store's hit/miss/eviction/occupancy collectors). The registry must be
	// private to this server: families are registered once in New.
	Metrics *metrics.Registry
	// Events, if set, is the lifecycle-event recorder attached to the
	// store. The server does not record into it directly; it serves the
	// retained events on AdminMux's /debug/events and /debug/trace and
	// exports its drop counters through Metrics.
	Events *obs.Recorder
	// TraceSample records every Nth request on each connection as a span
	// (phase timings, key digest, outcome) on AdminMux's /debug/events.
	// 0 disables sampling.
	TraceSample int
	// SlowRequest, when positive, always records a span for requests whose
	// parse+dispatch time crosses it, regardless of sampling.
	SlowRequest time.Duration
	// Listeners is how many listeners ListenAndServe opens on Addr via
	// SO_REUSEPORT, one accept loop each, so the kernel spreads incoming
	// connections across the loops. Every connection serves every key the
	// same way, whichever loop accepted it. <=0 means GOMAXPROCS. On
	// platforms without SO_REUSEPORT (or when the reuseport bind fails) the
	// same count of accept loops shares one listener.
	Listeners int
	// MRC, if set, is the online miss-ratio estimator fed from the store's
	// read path (cacheserver -mrc-sample wires it). The server only reads
	// snapshots — /debug/mrc, the `stats mrc` subcommand, and the
	// cache_mrc_* metric families; the estimator's drain loop is owned by
	// whoever constructed it.
	MRC *mrc.Online

	// TargetP99 enables the adaptive overload limiter: a p99
	// service-latency budget the AIMD concurrency limit adapts against.
	// Data ops acquire a limiter slot before dispatch; requests that
	// cannot be admitted within the budget are shed with a fast
	// SERVER_ERROR busy (mutations) or a miss-fast END (brownout reads)
	// instead of queueing unboundedly. 0 leaves latency adaptation off.
	TargetP99 time.Duration
	// MaxInflight caps the limiter's concurrency limit (its starting and
	// maximum value). <=0 means MaxConns. Setting it without TargetP99
	// pins the limit — a static concurrency cap with a bounded queue.
	// The limiter is constructed when either TargetP99 or MaxInflight is
	// set; with neither, admission control is off entirely.
	MaxInflight int
	// MaxPending bounds how many admitted-but-waiting requests may queue
	// for a limiter slot; arrivals beyond it shed immediately. <=0 means
	// 4x the concurrency limit.
	MaxPending int
}

// Server serves the memcached text protocol over a KV store. Each
// connection gets one goroutine with buffered reads and writes; responses
// are flushed only when the read buffer is drained, so pipelined request
// bursts are answered in batched writes.
type Server struct {
	cfg      Config
	counters Counters
	rows     []statRow      // the stat table, see statRows
	metrics  *serverMetrics // nil unless Config.Metrics was set
	log      *slog.Logger
	spans    *obs.SpanBuffer // nil unless tracing was enabled
	start    time.Time

	// series is the windowed telemetry ring (always constructed; its
	// 1 Hz sampler starts with ServeListeners and stops with Shutdown).
	series     *telemetry.Series
	seriesStop func()

	// limiter is the adaptive admission controller (nil unless TargetP99
	// or MaxInflight was set); its epoch ticker runs between
	// ServeListeners and Shutdown like the telemetry sampler.
	limiter     *overload.Limiter
	limiterStop func()

	mu    sync.Mutex
	lns   []net.Listener
	conns map[net.Conn]struct{}

	draining atomic.Bool
	wg       sync.WaitGroup
}

// New validates cfg, applies defaults, and returns an unstarted Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.MaxValueLen <= 0 {
		cfg.MaxValueLen = DefaultMaxValueLen
	}
	if cfg.TraceSample < 0 {
		return nil, fmt.Errorf("server: Config.TraceSample %d must be >= 0", cfg.TraceSample)
	}
	if cfg.Listeners <= 0 {
		cfg.Listeners = runtime.GOMAXPROCS(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:   cfg,
		log:   cfg.Logger,
		start: time.Now(),
		conns: make(map[net.Conn]struct{}),
		series: telemetry.New(telemetry.Options{
			Span:          time.Hour,
			LatencyBounds: metrics.DefLatencyBuckets,
		}),
	}
	if cfg.TraceSample > 0 || cfg.SlowRequest > 0 {
		s.spans = obs.NewSpanBuffer(spanBufferSize)
	}
	if cfg.TargetP99 > 0 || cfg.MaxInflight > 0 {
		maxLimit := cfg.MaxInflight
		if maxLimit <= 0 {
			maxLimit = cfg.MaxConns
		}
		s.limiter = overload.NewLimiter(overload.LimiterConfig{
			Target:     cfg.TargetP99,
			MaxLimit:   maxLimit,
			MaxPending: cfg.MaxPending,
		})
	}
	s.rows = s.statRows()
	if cfg.Metrics != nil {
		s.initMetrics(cfg.Metrics)
	}
	return s, nil
}

// limiterEpoch is the AIMD adaptation interval: long enough for a stable
// over-target fraction per epoch, short enough to react within a second.
const limiterEpoch = 100 * time.Millisecond

// Limiter exposes the server's admission controller (nil when overload
// control is off), for tests and admin surfaces.
func (s *Server) Limiter() *overload.Limiter { return s.limiter }

// Spans exposes the server's request-span buffer (nil when tracing is
// disabled), for tests and embedders that render spans elsewhere.
func (s *Server) Spans() *obs.SpanBuffer { return s.spans }

// Counters exposes the server's live counters (for tests and callers that
// embed them elsewhere).
func (s *Server) Counters() *Counters { return &s.counters }

// Addr returns the bound listen address (the first listener's), or nil
// before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lns) == 0 {
		return nil
	}
	return s.lns[0].Addr()
}

// numListeners reports how many accept loops are serving (0 before Serve).
func (s *Server) numListeners() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lns)
}

// ListenAndServe opens cfg.Listeners listeners on cfg.Addr and serves
// until Shutdown. With more than one listener it binds each with
// SO_REUSEPORT so the kernel spreads incoming connections across the
// accept loops; where that isn't available (non-Linux, or a kernel that
// refuses the option) the loops share a single listener instead — same
// serving topology, without kernel-level accept spreading.
func (s *Server) ListenAndServe() error {
	lns, err := s.listenAll()
	if err != nil {
		return err
	}
	return s.ServeListeners(lns)
}

func (s *Server) listenAll() ([]net.Listener, error) {
	n := s.cfg.Listeners
	if n <= 1 || !reusePortAvailable {
		ln, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return nil, err
		}
		if n <= 1 {
			return []net.Listener{ln}, nil
		}
		// Shared-listener fallback: n accept loops, one socket. Accept is
		// safe concurrently.
		lns := make([]net.Listener, n)
		for i := range lns {
			lns[i] = ln
		}
		return lns, nil
	}
	lc := reusePortListenConfig()
	lns := make([]net.Listener, 0, n)
	addr := s.cfg.Addr
	for i := 0; i < n; i++ {
		ln, err := lc.Listen(context.Background(), "tcp", addr)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			if i == 0 {
				// The very first reuseport bind failing usually means the
				// kernel rejects the option; fall back to one shared socket.
				s.log.Warn("SO_REUSEPORT bind failed, sharing one listener",
					"err", err, "listeners", n)
				ln, err := net.Listen("tcp", s.cfg.Addr)
				if err != nil {
					return nil, err
				}
				shared := make([]net.Listener, n)
				for j := range shared {
					shared[j] = ln
				}
				return shared, nil
			}
			return nil, err
		}
		lns = append(lns, ln)
		// ":0" resolves on the first bind; the rest must join the same port.
		addr = ln.Addr().String()
	}
	return lns, nil
}

// Accept-retry backoff bounds: transient accept errors (fd exhaustion, a
// peer that aborted in the backlog) are survived with an exponentially
// growing pause instead of tearing down Serve.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second

	// rejectWriteTimeout bounds the courtesy error write on the MaxConns
	// path: a stalled client must never wedge the accept loop.
	rejectWriteTimeout = time.Second
)

// isTransientAcceptErr classifies accept errors the loop should retry:
// running out of fds (EMFILE/ENFILE), connections aborted while queued
// (ECONNABORTED), transient kernel resource exhaustion, and anything the
// net package itself flags as temporary. Everything else — a closed or
// broken listener — is terminal.
func isTransientAcceptErr(err error) bool {
	for _, e := range []error{
		syscall.ECONNABORTED, syscall.ECONNRESET, syscall.EMFILE,
		syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM, syscall.EINTR,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	var ne net.Error
	//lint:ignore SA1019 Temporary is exactly the accept-loop notion wanted here.
	return errors.As(err, &ne) && ne.Temporary()
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a non-transient listener error. Transient accept errors back off and
// retry — one slow moment must not take down every established session.
func (s *Server) Serve(ln net.Listener) error {
	return s.ServeListeners([]net.Listener{ln})
}

// ServeListeners runs one accept loop per listener until Shutdown or a
// non-transient error on any loop; the first such error closes every
// listener and is returned. The loops only spread accepts: every
// connection is served the same way, whichever loop accepted it. Entries
// may repeat — the shared-listener fallback passes the same listener N
// times — in which case the loops share its accept queue.
func (s *Server) ServeListeners(lns []net.Listener) error {
	if len(lns) == 0 {
		return errors.New("server: ServeListeners needs at least one listener")
	}
	s.mu.Lock()
	s.lns = append(s.lns[:0], lns...)
	s.mu.Unlock()
	s.log.Info("serving", "addr", lns[0].Addr().String(),
		"listeners", len(lns), "cache", s.cfg.Store.Name())
	s.mu.Lock()
	if s.seriesStop == nil {
		s.seriesStop = s.series.Start(s.sampleTelemetry, time.Second)
	}
	if s.limiter != nil && s.limiterStop == nil {
		s.limiterStop = s.limiter.Start(limiterEpoch)
	}
	s.mu.Unlock()
	if len(lns) == 1 {
		return s.acceptLoop(lns[0])
	}
	errc := make(chan error, len(lns))
	for _, ln := range lns {
		go func() { errc <- s.acceptLoop(ln) }()
	}
	var first error
	for range lns {
		if err := <-errc; err != nil && first == nil {
			first = err
			// One listener died for real: take the rest down with it rather
			// than serving on a random subset of cores.
			s.mu.Lock()
			for _, l := range s.lns {
				l.Close()
			}
			s.mu.Unlock()
		}
	}
	return first
}

// acceptLoop accepts connections on ln and starts a handler for each.
func (s *Server) acceptLoop(ln net.Listener) error {
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			if isTransientAcceptErr(err) {
				if backoff == 0 {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				s.counters.AcceptRetries.Add(1)
				s.log.Warn("transient accept error, backing off",
					"err", err, "backoff", backoff.String())
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		backoff = 0
		s.counters.TotalConns.Add(1)
		// Registration — the conns entry and the WaitGroup count — happens
		// under mu and only while not draining. Shutdown sets draining
		// before it takes mu, so a connection is either registered before
		// Shutdown wakes the registered ones and waits for them, or turned
		// away here; wg.Add never runs beside Shutdown's wg.Wait.
		s.mu.Lock()
		draining := s.draining.Load()
		over := len(s.conns) >= s.cfg.MaxConns
		if !draining && !over {
			s.conns[nc] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if draining {
			nc.Close()
			return nil
		}
		if over {
			s.counters.RejectedConns.Add(1)
			s.log.Warn("connection rejected", "remote", nc.RemoteAddr().String(), "max_conns", s.cfg.MaxConns)
			// Deadline-bounded courtesy write: a client that won't read it
			// cannot block the accept loop.
			nc.SetWriteDeadline(time.Now().Add(rejectWriteTimeout))
			nc.Write([]byte("SERVER_ERROR too many connections\r\n"))
			nc.Close()
			continue
		}
		s.counters.CurrConns.Add(1)
		go s.handleConn(nc)
	}
}

// Shutdown drains the server: it stops accepting, wakes idle connections,
// lets every in-flight and pipelined request finish with its response
// flushed, and waits. If ctx expires first, remaining connections are
// force-closed and ctx's error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("draining", "open_conns", s.counters.CurrConns.Load())
	s.mu.Lock()
	if stop := s.seriesStop; stop != nil {
		s.seriesStop = nil
		s.mu.Unlock()
		stop()
		s.mu.Lock()
	}
	if stop := s.limiterStop; stop != nil {
		s.limiterStop = nil
		s.mu.Unlock()
		stop()
		s.mu.Lock()
	}
	for _, ln := range s.lns {
		ln.Close()
	}
	// Wake connections parked in a blocking read; their handlers observe
	// draining and exit cleanly after serving anything already buffered.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

func (s *Server) removeConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}
