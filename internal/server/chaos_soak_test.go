package server

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/concurrent"
	"repro/internal/metrics"
)

// TestChaosSoak is the resilience capstone: the full client→proxy→server
// stack soaked under seeded fault injection. Every request crosses a chaos
// proxy injecting connect refusals, latency, fragmented writes, mid-stream
// resets, and black-holed reads; the self-healing clients must absorb the
// faults (reconnecting and retrying), the server must come out healthy (no
// panics, no leaked goroutines), and the measured hit ratio must still
// agree with an in-process reference run — chaos may cost throughput, never
// correctness.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		capacity = 2048
		shards   = 8
		conns    = 4
		totalOps = 20000
		keySpace = 1 << 12
		seed     = int64(7)
	)
	baseGoroutines := runtime.NumGoroutine()

	// In-process reference over the same cache shape and streams.
	ref, err := concurrent.New("qdlp", capacity, concurrent.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	refRes := concurrent.MeasureThroughput(ref, conns, totalOps, keySpace, seed)

	inner, err := concurrent.New("qdlp", capacity, concurrent.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := New(Config{
		Store:        concurrent.NewKV(inner, shards),
		Metrics:      reg,
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	proxy, err := chaos.NewProxy("", ln.Addr().String(), chaos.Config{
		Seed:          seed,
		RefuseProb:    0.02,
		LatencyProb:   0.05,
		Latency:       500 * time.Microsecond,
		PartialProb:   0.05,
		ResetProb:     0.002,
		BlackholeProb: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}

	loadRes, err := RunLoad(LoadConfig{
		Addr:     proxy.Addr(),
		Conns:    conns,
		TotalOps: totalOps,
		KeySpace: keySpace,
		Seed:     seed,
		ValueLen: 32,
		Metrics:  reg,
		Dial: &DialConfig{
			ConnectTimeout: 2 * time.Second,
			ReadTimeout:    750 * time.Millisecond,
			WriteTimeout:   2 * time.Second,
			MaxRetries:     8,
			BackoffBase:    time.Millisecond,
			BackoffMax:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("soak run failed outright: %v", err)
	}

	ctr := proxy.Counters()
	t.Logf("faults injected: %s", ctr)
	t.Logf("ops=%d errors=%d retries=%d reconnects=%d hit=%.4f (ref %.4f)",
		loadRes.Ops, loadRes.Errors, loadRes.Retries, loadRes.Reconnects,
		loadRes.HitRatio(), refRes.HitRatio())

	// The chaos config must actually have bitten — a soak that injected
	// nothing proves nothing.
	if ctr.Resets.Load()+ctr.Refused.Load()+ctr.BlackholedReads.Load() == 0 {
		t.Fatal("no connection-killing faults injected; soak is vacuous")
	}
	if loadRes.Reconnects == 0 {
		t.Fatal("clients never reconnected despite injected resets/refusals")
	}

	// The clients healed: nearly every op completed despite the faults.
	if loadRes.Errors > totalOps*2/100 {
		t.Fatalf("errors = %d (> 2%% of %d ops): retry policy not absorbing faults",
			loadRes.Errors, totalOps)
	}
	if loadRes.Ops < int64(totalOps)-loadRes.Errors {
		t.Fatalf("ops %d + errors %d < %d: requests lost without being counted",
			loadRes.Ops, loadRes.Errors, totalOps)
	}

	// Chaos costs throughput, never correctness: hit-ratio agreement with
	// the in-process reference, with slack for ops dropped to errors and
	// for eviction-order noise under retried interleavings.
	delta := loadRes.HitRatio() - refRes.HitRatio()
	if delta < 0 {
		delta = -delta
	}
	if delta > 0.05 {
		t.Fatalf("hit ratios diverged under chaos: network %.4f vs in-process %.4f",
			loadRes.HitRatio(), refRes.HitRatio())
	}

	// The server came through clean: zero panics, still serving on the
	// direct (fault-free) address.
	if n := srv.Counters().Panics.Load(); n != 0 {
		t.Fatalf("server panicked %d times under chaos", n)
	}
	direct, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("direct dial after soak: %v", err)
	}
	stats, err := direct.Stats()
	if err != nil {
		t.Fatalf("stats after soak: %v", err)
	}
	if _, err := StatInt(stats, "cmd_get"); err != nil {
		t.Fatal(err)
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean teardown, then prove nothing leaked: proxy relays and server
	// handlers must all unwind.
	if err := proxy.Close(); err != nil {
		t.Fatalf("proxy close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
