package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/overload"
)

// gatedStore blocks every hit-path read until its gate closes, so a test
// can hold the limiter's only slot open and observe queueing and shedding
// deterministically.
type gatedStore struct {
	Store
	gate <-chan struct{}
}

func (g *gatedStore) AppendHit(dst, key []byte, id uint64, hdr concurrent.HitHeaderFunc) ([]byte, int, bool) {
	<-g.gate
	return g.Store.AppendHit(dst, key, id, hdr)
}

// slowStore delays every hit-path read by a fixed service time, modeling a
// backend running at its capacity limit.
type slowStore struct {
	Store
	delay time.Duration
}

func (s *slowStore) AppendHit(dst, key []byte, id uint64, hdr concurrent.HitHeaderFunc) ([]byte, int, bool) {
	time.Sleep(s.delay)
	return s.Store.AppendHit(dst, key, id, hdr)
}

func waitLimiter(t *testing.T, srv *Server, cond func(overload.LimiterSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.Limiter().Snapshot()
		if cond(snap) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("limiter never reached state: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLimiterQueueFullSheds pins the admission ladder end to end with one
// slot and one queue seat: the first request runs, the second queues, the
// third is answered SERVER_ERROR busy without ever touching the store.
func TestLimiterQueueFullSheds(t *testing.T) {
	gate := make(chan struct{})
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Store = &gatedStore{Store: cfg.Store, gate: gate}
		cfg.MaxInflight = 1
		cfg.MaxPending = 1
		// A generous budget so the queued request outlives the test's
		// choreography instead of timing out.
		cfg.TargetP99 = 4 * time.Second
	})

	a, b, c := dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr)
	a.send("get k\r\n")
	waitLimiter(t, srv, func(s overload.LimiterSnapshot) bool { return s.Inflight == 1 })
	b.send("get k\r\n")
	waitLimiter(t, srv, func(s overload.LimiterSnapshot) bool { return s.Pending == 1 })
	c.send("get k\r\n")
	c.expect("SERVER_ERROR busy")

	close(gate)
	a.expect("END")
	b.expect("END")

	snap := srv.Limiter().Snapshot()
	if snap.ShedTotal == 0 {
		t.Fatal("shed counter never moved")
	}
	if snap.Admitted < 2 {
		t.Fatalf("admitted = %d, want >= 2", snap.Admitted)
	}

	// The shed is visible on the stats surface the tier-1 smoke scrapes.
	sc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	stats, err := sc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := StatInt(stats, "shed_total"); err != nil || n == 0 {
		t.Fatalf("stats shed_total = %d, %v", n, err)
	}
}

// TestOverloadFloodShedsAndHoldsP99 is the overload acceptance test: a
// closed-loop flood far beyond the server's capacity must be answered by
// shedding — busy replies, a bounded queue, and a survivor p99 that stays
// within sight of the target instead of growing with offered load.
func TestOverloadFloodShedsAndHoldsP99(t *testing.T) {
	const (
		conns      = 16
		opsPerConn = 80
		service    = 2 * time.Millisecond
		maxPending = 4
	)
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Store = &slowStore{Store: cfg.Store, delay: service}
		cfg.TargetP99 = 20 * time.Millisecond
		cfg.MaxInflight = 2
		cfg.MaxPending = maxPending
		cfg.MaxConns = conns + 8
	})

	var (
		mu        sync.Mutex
		latencies []time.Duration
		busy      int64
	)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			var mine []time.Duration
			var myBusy int64
			for op := 0; op < opsPerConn; op++ {
				start := time.Now()
				_, _, err := c.Get([]byte("k"))
				if errors.Is(err, ErrServerBusy) {
					myBusy++
					continue
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				mine = append(mine, time.Since(start))
			}
			mu.Lock()
			latencies = append(latencies, mine...)
			busy += myBusy
			mu.Unlock()
		}()
	}
	wg.Wait()

	if busy == 0 {
		t.Fatal("flood produced no busy replies: nothing was shed")
	}
	if len(latencies) == 0 {
		t.Fatal("every request was shed: limiter admitted nothing")
	}
	snap := srv.Limiter().Snapshot()
	if snap.ShedTotal == 0 {
		t.Fatal("limiter shed counter is zero despite busy replies")
	}
	if snap.Pending > maxPending {
		t.Fatalf("pending %d exceeded the configured bound %d", snap.Pending, maxPending)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	t.Logf("admitted=%d busy=%d p99=%v shed=%d", len(latencies), busy, p99, snap.ShedTotal)
	// The bound is loose (scheduler noise under -race dwarfs the 20ms
	// target) but still orders of magnitude below what an unbounded queue
	// would produce at this offered load.
	if p99 > 2*time.Second {
		t.Fatalf("admitted p99 %v: queue is not bounded", p99)
	}
}

// TestAcceptBackoffAndSlowReaderUnderOverload is the compound-failure
// drill: transient accept errors, a slow reader hoarding buffered
// responses, and an admission-limited flood all at once. The server must
// eat the accept errors with backoff, evict the slow reader at the write
// deadline, shed the excess flood, and keep answering — simultaneously.
func TestAcceptBackoffAndSlowReaderUnderOverload(t *testing.T) {
	const valueLen = 128 << 10
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:        concurrent.NewKV(inner, 8),
		MaxConns:     32,
		IdleTimeout:  time.Minute,
		WriteTimeout: 200 * time.Millisecond,
		TargetP99:    100 * time.Millisecond,
		MaxInflight:  1,
		MaxPending:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, errs: []error{
		&net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE},
		&net.OpError{Op: "accept", Net: "tcp", Err: syscall.ECONNABORTED},
	}}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(fl) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	// Seed the oversized value the slow reader will hoard.
	seed, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Set([]byte("big"), 0, bytes.Repeat([]byte("x"), valueLen)); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// The slow reader: pipeline hundreds of huge responses, read nothing.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := slow.Write(bytes.Repeat([]byte("get big\r\n"), 512)); err != nil {
		t.Fatal(err)
	}

	// The flood: hammer small gets while the slow reader clogs the single
	// admission slot, until both failure responses have been observed.
	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	for i := 0; i < 6; i++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			c, err := Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := c.Get([]byte("k")); err != nil && !errors.Is(err, ErrServerBusy) {
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		evicted := srv.Counters().SlowConnsClosed.Load() > 0
		shed := srv.Limiter().Snapshot().ShedTotal > 0
		if evicted && shed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted=%v shed=%v after 30s", evicted, shed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	floodWG.Wait()

	if n := srv.Counters().AcceptRetries.Load(); n != 2 {
		t.Fatalf("accept_retries = %d, want 2", n)
	}

	// The compound failure cost nothing durable: a fresh client still gets
	// full service.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, found, err := c.Get([]byte("big"))
	if err != nil || !found || len(v) != valueLen {
		t.Fatalf("get after compound failure = (len %d, %v, %v)", len(v), found, err)
	}
}
