// Command cacheserver serves a memcached-compatible text protocol subset
// (get/gets multi-key, set, delete, stats, noop, version, quit) over the sharded
// thread-safe caches in internal/concurrent — the paper's §5–§6 deployment
// argument as a runnable system. The eviction policy is selectable, so the
// LRU-vs-lazy-promotion comparison carries over to served traffic:
//
//	cacheserver -addr :11211 -cache qdlp -max-bytes 512mib -shards 64
//	cacheserver -cache lru -max-entries 1048576 -admin-addr :8080
//
// The admin listener serves Prometheus metrics at /metrics (per-command
// request counters and latency histograms, per-policy hit/miss/eviction
// counters, per-shard occupancy), liveness at /healthz, expvar at
// /debug/vars, profiles at /debug/pprof, and — when -events/-trace-sample
// are on — lifecycle events and request spans at /debug/events with a
// per-key live watch at /debug/trace.
//
// Overload control is opt-in: -target-p99 arms an adaptive AIMD admission
// limiter that sheds excess load (SERVER_ERROR busy, misses under deep
// pressure) to hold the admitted p99 under the budget; -max-inflight and
// -max-pending bound its concurrency and queue. In router mode,
// -probe-interval arms a phi-accrual failure detector that ejects dead or
// browned-out backends from the ring and re-admits them on recovery.
//
// Diagnostics are structured (log/slog): -log-level picks the floor,
// -log-format text|json the encoding.
//
// SIGINT/SIGTERM drain gracefully: in-flight and pipelined requests finish
// with their responses flushed before connections close.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/mrc"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/units"
)

func main() {
	var (
		addr        = flag.String("addr", ":11211", "TCP listen address")
		cache       = flag.String("cache", "qdlp", "eviction policy: "+strings.Join(concurrent.Names(), "|"))
		maxBytesF   = flag.String("max-bytes", "", "cache capacity in bytes, human-readable (512mib, 4gib); mutually exclusive with -max-entries")
		maxEntries  = flag.Int("max-entries", 0, "cache capacity in objects; mutually exclusive with -max-bytes (default 1048576 when neither is given)")
		shards      = flag.Int("shards", 64, "shard count (rounded up to a power of two)")
		clockBits   = flag.Int("clock-bits", 0, "CLOCK counter bits for clock/qdlp (0 = policy default)")
		maxConns    = flag.Int("max-conns", 1024, "max concurrent client connections")
		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "close idle connections after this long (armed lazily: no earlier than this, no later than 1.25x)")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "close connections whose reads stall a response flush this long (armed lazily: no earlier than this, no later than 1.25x)")
		maxItemSize = flag.Int("max-item-size", server.DefaultMaxValueLen, "max value size in bytes")
		listeners   = flag.Int("listeners", 0, "SO_REUSEPORT listeners, one accept loop each, spreading accepted connections (0 = GOMAXPROCS)")
		adminAddr   = flag.String("admin-addr", "", "optional HTTP admin address (/metrics, /healthz, /debug/vars, /debug/events, /debug/trace, /debug/mrc, /debug/series, /debug/pprof)")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
		logLevel    = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat   = flag.String("log-format", "text", "log encoding: text|json")
		mrcSample   = flag.Float64("mrc-sample", 0, "SHARDS spatial sampling rate for the online miss-ratio curve (/debug/mrc, stats mrc, cache_mrc_* metrics); 0 = off, try 0.01")
		events      = flag.Int("events", 0, "retain this many cache lifecycle events for /debug/events and /debug/trace (0 = off)")
		traceSample = flag.Int("trace-sample", 0, "record every Nth request per connection as a span (0 = off)")
		slowReq     = flag.Duration("slow-request", 100*time.Millisecond, "always record requests slower than this as spans (0 = off; only active with tracing or -events)")
		targetP99   = flag.Duration("target-p99", 0, "adaptive overload limiter: shed load to hold admitted p99 under this budget (0 = no limiter unless -max-inflight is set)")
		maxInflight = flag.Int("max-inflight", 0, "overload limiter: max concurrent admitted requests (0 = -max-conns when the limiter is on)")
		maxPending  = flag.Int("max-pending", 0, "overload limiter: max requests queued for admission before shedding (0 = 4x the inflight limit)")
		route       = flag.String("route", "", "comma-separated backend nodes (host:port,...): serve as a cluster router instead of a local cache")
		replicas    = flag.Int("replicas", 2, "router: nodes serving each hot key (1 disables hot-key replication)")
		hotThresh   = flag.Int("hot-threshold", 8, "router: count-min estimate at which a key is replicated")
		vnodes      = flag.Int("vnodes", cluster.DefaultVirtualNodes, "router: virtual nodes per backend on the hash ring")
		ringSeed    = flag.Int64("ring-seed", 0, "router: ring placement seed (share across routers for identical routing)")
		probeIvl    = flag.Duration("probe-interval", 0, "router: health-probe each backend this often, ejecting nodes the phi-accrual detector marks dead and re-admitting them on recovery (0 = off)")
		probeTO     = flag.Duration("probe-timeout", 250*time.Millisecond, "router: per-probe deadline; keep near the latency SLO so a browned-out node fails probes")
	)
	flag.Parse()

	lg, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cacheserver: %v\n", err)
		os.Exit(1)
	}
	lg = lg.With("prog", "cacheserver")
	fatal := func(msg string, err error) {
		lg.Error(msg, "err", err)
		os.Exit(1)
	}

	reg := metrics.NewRegistry()
	var (
		store     server.Store
		rec       *obs.Recorder
		router    *cluster.Router
		mrcOnline *mrc.Online
	)
	if *route != "" {
		// Router mode: no local cache — every operation forwards to the
		// consistent-hash owner among the backends, hot keys replicated.
		if *events > 0 {
			rec = obs.NewRecorder(*shards, *events/max(*shards, 1))
		}
		router, err = cluster.NewRouter(cluster.RouterConfig{
			Nodes:         splitNodes(*route),
			Seed:          *ringSeed,
			VirtualNodes:  *vnodes,
			Replicas:      *replicas,
			HotThreshold:  *hotThresh,
			Metrics:       reg,
			Events:        rec,
			Logger:        lg,
			ProbeInterval: *probeIvl,
			ProbeTimeout:  *probeTO,
		})
		if err != nil {
			fatal("router construction failed", err)
		}
		store = router
	} else {
		var policyOpts []concurrent.Option
		if *clockBits != 0 {
			policyOpts = append(policyOpts, concurrent.WithClockBits(*clockBits))
		}
		opts := append([]concurrent.Option{concurrent.WithShards(*shards)}, policyOpts...)
		if *events > 0 {
			// One ring per policy shard keeps recording contention-free; the
			// requested retention is split across them.
			rec = obs.NewRecorder(*shards, *events/max(*shards, 1))
			opts = append(opts, concurrent.WithRecorder(rec))
		}
		// Capacity: a byte budget or an object count, never both; with
		// neither flag the server holds 2^20 objects.
		switch {
		case *maxBytesF != "" && *maxEntries != 0:
			fatal("flag conflict", fmt.Errorf("-max-bytes is mutually exclusive with -max-entries"))
		case *maxBytesF != "":
			n, err := units.ParseBytes(*maxBytesF)
			if err != nil {
				fatal("bad -max-bytes", err)
			}
			opts = append(opts, concurrent.WithMaxBytes(n))
		case *maxEntries != 0:
			opts = append(opts, concurrent.WithMaxEntries(*maxEntries))
		default:
			opts = append(opts, concurrent.WithMaxEntries(1<<20))
		}
		inner, err := concurrent.New(*cache, 0, opts...)
		if err != nil {
			fatal("cache construction failed", err)
		}
		kv := concurrent.NewKV(inner, *shards)
		// The timer wheel ticks at 1s granularity; a matching ticker keeps
		// proactive expiry within two ticks of every deadline.
		stopExpiry := kv.StartExpiry(time.Second)
		defer stopExpiry()
		if *mrcSample > 0 {
			// Live miss-ratio analytics: the read path offers sampled key
			// digests into lock-free staging rings; the estimator drains
			// them through one-shard miniatures of the served policy and
			// republishes its curve once a second.
			smp := obs.NewKeySampler(*mrcSample, *shards, 1024)
			kv.SetSampler(smp)
			online, err := mrc.NewOnline(mrc.OnlineConfig{
				Rate: *mrcSample,
				Cache: func(c int) (concurrent.Cache, error) {
					return concurrent.New(*cache, c, append([]concurrent.Option{concurrent.WithShards(1)}, policyOpts...)...)
				},
				Source: smp,
			})
			if err != nil {
				fatal("bad -mrc-sample", err)
			}
			stopMRC := online.Start(time.Second)
			defer stopMRC()
			mrcOnline = online
		}
		store = kv
	}
	if *mrcSample > 0 && router != nil {
		// The router serves no local hit stream to sample; each backend
		// runs its own estimator and /cluster rolls the curves up.
		lg.Warn("-mrc-sample ignored in router mode (enable it on the backends)")
	}
	slow := *slowReq
	if rec == nil && *traceSample == 0 {
		slow = 0 // no observability plane requested: keep the loop untimed
	}
	srv, err := server.New(server.Config{
		Addr:         *addr,
		Store:        store,
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTO,
		MaxValueLen:  *maxItemSize,
		Logger:       lg,
		Metrics:      reg,
		Events:       rec,
		TraceSample:  *traceSample,
		SlowRequest:  slow,
		Listeners:    *listeners,
		MRC:          mrcOnline,
		TargetP99:    *targetP99,
		MaxInflight:  *maxInflight,
		MaxPending:   *maxPending,
	})
	if err != nil {
		fatal("server construction failed", err)
	}

	if *adminAddr != "" {
		expvar.Publish("cacheserver", srv.ExpvarMap())
		mux := srv.AdminMux(reg)
		if router != nil {
			mux.Handle("/cluster", router.AdminHandler())
		}
		// Bind before logging, so the line names the port a ":0" address got.
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal("admin listen failed", err)
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				lg.Error("admin server failed", "err", err)
			}
		}()
		lg.Info("admin endpoint up", "url", "http://"+ln.Addr().String()+"/metrics")
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if router != nil {
		lg.Info("starting",
			"mode", "router", "addr", *addr,
			"nodes", *route, "replicas", *replicas, "hot_threshold", *hotThresh, "vnodes", *vnodes,
			slog.Group("obs", "events", *events, "trace_sample", *traceSample, "slow_request", slow.String()))
	} else {
		snap := store.Stats()
		if snap.MaxBytes > 0 {
			lg.Info("starting",
				"cache", store.Name(), "addr", *addr,
				"max_bytes", units.FormatBytes(snap.MaxBytes), "shards", *shards,
				slog.Group("obs", "events", *events, "trace_sample", *traceSample, "slow_request", slow.String()))
		} else {
			lg.Info("starting",
				"cache", store.Name(), "addr", *addr,
				"capacity", snap.Capacity, "shards", *shards,
				slog.Group("obs", "events", *events, "trace_sample", *traceSample, "slow_request", slow.String()))
		}
	}

	select {
	case err := <-errCh:
		if err != nil {
			fatal("serve failed", err)
		}
	case sig := <-sigs:
		lg.Info("signal received, draining", "signal", sig.String(), "deadline", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal("shutdown failed", err)
		}
		lg.Info("drained cleanly")
	}
}

// splitNodes parses the -route list, trimming blanks so trailing commas are
// forgiven.
func splitNodes(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
