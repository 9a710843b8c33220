package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
)

// TestEndToEndHitRatioAgreement is the subsystem smoke test: a server on a
// loopback listener is driven by the cacheload client library, and the
// network-measured hit ratio must agree (±1%) with an in-process
// MeasureThroughput run over the same cache configuration and seed. Both
// sides replay the identical per-worker streams from concurrent.ZipfStreams,
// so any disagreement beyond eviction-timing noise means the server path
// (parse → KV adapter → shard) is mishandling requests.
func TestEndToEndHitRatioAgreement(t *testing.T) {
	const (
		capacity = 4096
		shards   = 8
		conns    = 2
		totalOps = 60000
		keySpace = 1 << 13
		seed     = int64(1)
	)

	// In-process reference run.
	ref, err := concurrent.New("qdlp", capacity, concurrent.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	refRes := concurrent.MeasureThroughput(ref, conns, totalOps, keySpace, seed)

	// Networked run against a fresh cache of the same shape.
	inner, err := concurrent.New("qdlp", capacity, concurrent.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	serverReg := metrics.NewRegistry()
	srv, err := New(Config{Store: concurrent.NewKV(inner, shards), Metrics: serverReg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	clientReg := metrics.NewRegistry()
	loadRes, err := RunLoad(LoadConfig{
		Addr:     ln.Addr().String(),
		Conns:    conns,
		TotalOps: totalOps,
		KeySpace: keySpace,
		Seed:     seed,
		ValueLen: 32,
		Metrics:  clientReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if loadRes.Ops != totalOps {
		t.Fatalf("load issued %d ops, want %d", loadRes.Ops, totalOps)
	}
	if refRes.Ops != totalOps {
		t.Fatalf("reference issued %d ops, want %d", refRes.Ops, totalOps)
	}

	// Hit-ratio agreement within one percentage point. The two runs replay
	// identical streams; residual slack covers interleaving-dependent
	// eviction order across connections.
	delta := loadRes.HitRatio() - refRes.HitRatio()
	if delta < 0 {
		delta = -delta
	}
	t.Logf("network hit ratio %.4f, in-process %.4f (delta %.4f)",
		loadRes.HitRatio(), refRes.HitRatio(), delta)
	if delta > 0.01 {
		t.Fatalf("hit ratios disagree: network %.4f vs in-process %.4f",
			loadRes.HitRatio(), refRes.HitRatio())
	}

	// Server-side accounting must line up with the client's view.
	c := srv.Counters()
	st := srv.cfg.Store.Stats()
	hits := st.Hits
	if gets := hits + st.Misses; gets != int64(totalOps) {
		t.Fatalf("server cmd_get = %d, want %d", gets, totalOps)
	}
	if hits != int64(loadRes.Hits) {
		t.Fatalf("server get_hits %d != client hits %d", hits, loadRes.Hits)
	}
	if c.Sets.Load() != int64(loadRes.Sets) {
		t.Fatalf("server cmd_set %d != client sets %d", c.Sets.Load(), loadRes.Sets)
	}

	// The two registries report the same families from opposite sides of the
	// wire, distinguished only by the side label, and must agree with the
	// run's own accounting.
	var serverExp, clientExp bytes.Buffer
	if err := serverReg.WriteText(&serverExp); err != nil {
		t.Fatal(err)
	}
	if err := clientReg.WriteText(&clientExp); err != nil {
		t.Fatal(err)
	}
	for exp, want := range map[*bytes.Buffer][]string{
		&serverExp: {
			fmt.Sprintf(`cache_requests_total{cmd="get",side="server"} %d`, totalOps),
			fmt.Sprintf(`cache_hits_total{policy="concurrent-qdlp",side="server"} %d`, loadRes.Hits),
		},
		&clientExp: {
			fmt.Sprintf(`cache_requests_total{cmd="get",side="client"} %d`, totalOps),
			fmt.Sprintf(`cache_hits_total{side="client"} %d`, loadRes.Hits),
			fmt.Sprintf(`cache_sets_total{side="client"} %d`, loadRes.Sets),
			fmt.Sprintf(`cache_request_duration_seconds_count{cmd="get",side="client"} %d`, totalOps),
		},
	} {
		for _, line := range want {
			if !strings.Contains(exp.String(), line+"\n") {
				t.Errorf("exposition missing %q", line)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
