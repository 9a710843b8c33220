// Command cacheload drives a cacheserver with closed-loop load: N
// connections each replay a deterministic key stream (plain Zipf by
// default, or any internal/workload family with -family), issuing a get
// per key and a set on each miss. It reports ops/s, hit ratio, and get
// round-trip latency percentiles — the hit-ratio-and-throughput-together
// measurement the serving-stack literature calls for.
//
//	cacheload -addr localhost:11211 -conns 8 -ops 1000000
//	cacheload -family twitter -keyspace 100000 -conns 4
//
// With -rate N the loop opens: gets are scheduled at N ops/sec aggregate
// and each op's latency is measured from its scheduled arrival, so a
// stalling server accrues queueing delay in the reported percentiles
// instead of quietly slowing the offered load (the coordinated-omission
// correction). -retry-budget caps fleet-wide retry amplification with one
// token bucket shared by every connection:
//
//	cacheload -rate 50000 -retries 4 -retry-budget 0.1 -ops 500000
//
// With -retries the clients self-heal: transport failures reconnect with
// jittered backoff and retry under the per-command policy, so a server
// restart mid-run costs errors, not the run. With -chaos every connection
// is routed through an in-process fault-injection proxy
// (internal/chaos), exercising the same recovery paths on demand:
//
//	cacheload -chaos 'seed=7,latency=2ms,latency-p=0.1,reset=0.005' -ops 100000
//
// With -servers the load spreads across a cluster: each connection becomes
// a ring-routing cluster client, sending every key to its consistent-hash
// owner — the same placement a router or another client computes:
//
//	cacheload -servers localhost:7001,localhost:7002,localhost:7003 -conns 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/units"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:11211", "cache server address")
		servers   = flag.String("servers", "", "comma-separated cluster endpoints (host:port,...): each connection routes keys across the ring instead of hitting -addr")
		conns     = flag.Int("conns", 4, "concurrent client connections")
		ops       = flag.Int("ops", 1<<20, "total get operations across all connections")
		keySpace  = flag.Int("keyspace", 1<<17, "distinct keys in the load")
		seed      = flag.Int64("seed", 1, "load generator seed")
		family    = flag.String("family", "", "workload family name (empty = Zipf)")
		valueLenF = flag.String("valuesize", "64", "value payload size, human-readable (64, 4kib, 1mib)")
		metricsF  = flag.String("metrics", "", `write client-side Prometheus exposition here after the run ("-" = stdout); families match the server's, labeled side="client"`)
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFmt    = flag.String("log-format", "text", "log encoding: text|json")

		rate        = flag.Float64("rate", 0, "open-loop mode: schedule gets at this aggregate ops/sec and measure latency from each op's scheduled arrival (coordinated-omission corrected); 0 = closed loop")
		retries     = flag.Int("retries", 0, "per-op transport-failure retry cap (0 = fail fast); sets are replayed at most once")
		retryBudget = flag.Float64("retry-budget", 0, "token-bucket retry budget shared by all connections: earn this fraction of a retry per completed op (try 0.1; implies -retries 4 if unset); 0 = retries bounded only by -retries")
		opTimeout   = flag.Duration("op-timeout", 0, "per-operation read/write deadline (0 = none)")
		connTimeout = flag.Duration("connect-timeout", 5*time.Second, "dial deadline")
		chaosSpec   = flag.String("chaos", "", `route load through an in-process fault-injection proxy; spec like "seed=7,refuse=0.02,latency=2ms,latency-p=0.1,partial=0.1,reset=0.01,blackhole=0.005" (implies -retries 4 and -op-timeout 1s if unset)`)
	)
	flag.Parse()

	lg, err := obs.NewLogger(*logLevel, *logFmt, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cacheload: %v\n", err)
		os.Exit(1)
	}
	lg = lg.With("prog", "cacheload")
	fatal := func(msg string, err error) {
		lg.Error(msg, "err", err)
		os.Exit(1)
	}

	valueBytes, err := units.ParseBytes(*valueLenF)
	if err != nil {
		fatal("bad -valuesize", err)
	}
	if valueBytes <= 0 || valueBytes > int64(server.DefaultMaxValueLen) {
		fatal("bad -valuesize", fmt.Errorf("value size %d outside (0, %d]", valueBytes, server.DefaultMaxValueLen))
	}
	valueLen := int(valueBytes)
	if *conns < 1 {
		fatal("bad -conns", fmt.Errorf("connection count %d must be at least 1", *conns))
	}

	// -chaos interposes the fault proxy between the clients and the server.
	// A chaos run without a retry budget or op deadline would just measure
	// the first fault, so both default on.
	loadAddr := *addr
	var proxy *chaos.Proxy
	if *chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal("bad -chaos spec", err)
		}
		if *retries == 0 {
			*retries = 4
			lg.Info("chaos enabled, defaulting -retries", "retries", *retries)
		}
		if *opTimeout == 0 {
			*opTimeout = time.Second
			lg.Info("chaos enabled, defaulting -op-timeout", "op_timeout", opTimeout.String())
		}
		proxy, err = chaos.NewProxy("", *addr, ccfg)
		if err != nil {
			fatal("chaos proxy failed", err)
		}
		defer proxy.Close()
		loadAddr = proxy.Addr()
		lg.Info("chaos proxy interposed", "proxy", loadAddr, "backend", *addr, "spec", *chaosSpec)
	}
	// -retry-budget caps fleet-wide retry amplification: one token bucket
	// shared by every connection, earning tokens as ops complete and
	// spending one per retry. A budget without a per-op retry cap would be
	// inert, so it implies a cap.
	var budget *overload.RetryBudget
	if *retryBudget > 0 {
		if *retries == 0 {
			*retries = 4
			lg.Info("retry budget enabled, defaulting -retries", "retries", *retries)
		}
		budget = overload.NewRetryBudget(*retryBudget, 0)
	}
	var dial *server.DialConfig
	if *retries > 0 || *opTimeout > 0 {
		dial = &server.DialConfig{
			ConnectTimeout: *connTimeout,
			ReadTimeout:    *opTimeout,
			WriteTimeout:   *opTimeout,
			MaxRetries:     *retries,
			Budget:         budget,
		}
	}

	var reg *metrics.Registry
	if *metricsF != "" {
		reg = metrics.NewRegistry()
		if budget != nil {
			reg.CounterFunc("cache_retry_budget_exhausted_total",
				"Retries refused because the shared retry budget was empty.",
				budget.Exhausted, "side", "client")
		}
	}
	// -servers spreads each connection's keys across the cluster ring: every
	// load connection becomes a cluster.Client owning one self-healing
	// connection per endpoint, routing key-by-key exactly as a router does.
	var dialFunc func(int) (server.LoadConn, error)
	if *servers != "" {
		if *chaosSpec != "" {
			fatal("flag conflict", fmt.Errorf("-chaos fronts a single -addr; it cannot interpose a -servers ring"))
		}
		endpoints := splitEndpoints(*servers)
		if len(endpoints) == 0 {
			fatal("bad -servers", fmt.Errorf("no endpoints in %q", *servers))
		}
		ccfg := cluster.ClientConfig{Endpoints: endpoints, Budget: budget}
		if dial != nil {
			ccfg.Dial = *dial
		}
		dialFunc = func(int) (server.LoadConn, error) { return cluster.NewClient(ccfg) }
		lg.Info("cluster load", "endpoints", len(endpoints), "servers", *servers)
	}
	res, runErr := server.RunLoad(server.LoadConfig{
		Addr:     loadAddr,
		Conns:    *conns,
		TotalOps: *ops,
		KeySpace: *keySpace,
		Seed:     *seed,
		Family:   *family,
		ValueLen: valueLen,
		Metrics:  reg,
		Dial:     dial,
		DialFunc: dialFunc,
		Rate:     *rate,
	})
	if runErr != nil {
		fatal("load run failed", runErr)
	}

	workloadName := *family
	if workloadName == "" {
		workloadName = "zipf"
	}
	fmt.Printf("workload=%s conns=%d keyspace=%d valuesize=%d\n",
		workloadName, *conns, *keySpace, valueLen)
	tb := stats.NewTable("metric", "value")
	tb.AddRow("ops", res.Ops)
	tb.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
	tb.AddRow("ops/s", fmt.Sprintf("%.0f", res.OpsPerSecond()))
	if *rate > 0 {
		tb.AddRow("offered rate", fmt.Sprintf("%.0f", *rate))
	}
	tb.AddRow("hit ratio", fmt.Sprintf("%.4f", res.HitRatio()))
	tb.AddRow("sets (fills)", res.Sets)
	if dial != nil {
		tb.AddRow("errors", res.Errors)
		tb.AddRow("retries", res.Retries)
		tb.AddRow("reconnects", res.Reconnects)
	}
	if budget != nil {
		tb.AddRow("budget exhausted", budget.Exhausted())
	}
	tb.AddRow("get p50", res.Latency.Percentile(50).String())
	tb.AddRow("get p90", res.Latency.Percentile(90).String())
	tb.AddRow("get p99", res.Latency.Percentile(99).String())
	tb.AddRow("get p999", res.Latency.Percentile(99.9).String())
	tb.AddRow("get max", res.Latency.Percentile(100).String())
	fmt.Print(tb)
	if proxy != nil {
		fmt.Printf("chaos faults injected: %s\n", proxy.Counters())
	}

	if reg != nil {
		out := os.Stdout
		if *metricsF != "-" {
			f, err := os.Create(*metricsF)
			if err != nil {
				fatal("metrics file create failed", err)
			}
			defer f.Close()
			out = f
		} else {
			fmt.Println()
		}
		if err := reg.WriteText(out); err != nil {
			fatal("metrics write failed", err)
		}
	}
}

// splitEndpoints parses -servers, trimming blanks so trailing commas are
// forgiven.
func splitEndpoints(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
