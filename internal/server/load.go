package server

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// LoadConfig parameterizes a closed-loop load run: Conns connections each
// replay a pre-generated key stream, issuing a get per key and a set on
// every miss (the standard cache-aside shape).
type LoadConfig struct {
	// Addr is the server to drive.
	Addr string
	// Conns is the number of concurrent connections. <=0 means 1.
	Conns int
	// TotalOps is the aggregate number of get operations across all
	// connections (distributed exactly, like MeasureThroughput).
	TotalOps int
	// KeySpace is the distinct-key count (Zipf) or catalog size (family).
	KeySpace int
	// Seed makes the run deterministic.
	Seed int64
	// Family selects an internal/workload family stream by name; empty
	// selects the plain Zipf stream shared with MeasureThroughput, so an
	// over-the-wire run replays byte-identical load to an in-process one.
	Family string
	// ValueLen is the value payload size in bytes. <=0 means 64.
	ValueLen int
	// LatencySamples bounds retained get-latency samples per connection.
	// <=0 means 1<<16.
	LatencySamples int
	// Metrics, if set, receives client-side instruments under the same
	// family names the server reports (side="client"), so one scrape of
	// each end lines up: requests and latency per command, hits/misses.
	Metrics *metrics.Registry
	// Dial, if set, selects the self-healing client: each connection dials
	// with these timeouts and retry budget (Addr is overridden per run).
	// With MaxRetries > 0 the run is resilient — an operation that exhausts
	// its retry budget is counted as an error and the loop moves on instead
	// of aborting, so a server restart mid-sweep costs accuracy, not the
	// run. Nil keeps the strict fail-fast behavior of plain Dial.
	Dial *DialConfig
	// DialFunc, if set, supplies each connection's client directly and
	// takes precedence over Addr/Dial. It is the multi-endpoint seam:
	// cacheload's -servers flag hands RunLoad cluster-aware clients that
	// route each key through a consistent-hash ring, while the closed loop
	// here stays identical.
	DialFunc func(connID int) (LoadConn, error)
	// Resilient forces count-and-skip error handling for DialFunc clients
	// (with plain Dial it is implied by MaxRetries > 0).
	Resilient bool
	// Rate, when > 0, switches the run from closed-loop to open-loop: gets
	// are scheduled at Rate ops/sec aggregate (split evenly across
	// connections, arrivals staggered), issued when their slot comes due
	// regardless of how fast earlier operations completed, and every get's
	// latency is measured from its scheduled arrival rather than its actual
	// send. A stalling server therefore accrues queueing delay in the
	// recorded distribution instead of silently slowing the offered load —
	// the coordinated-omission correction a closed loop cannot make.
	Rate float64
}

// LoadConn is the per-connection client surface RunLoad drives. *Client
// implements it; so does the cluster-aware client in internal/cluster,
// which is how one closed loop spreads across a ring of servers.
type LoadConn interface {
	Get(key []byte) (value []byte, found bool, err error)
	Set(key []byte, flags uint32, value []byte) error
	// Retries and Reconnects surface self-healing work for the run tally.
	Retries() int64
	Reconnects() int64
	Close() error
}

// loadMetrics are the client-side instruments, shared by all connections.
type loadMetrics struct {
	getReqs, setReqs *metrics.Counter
	getLat, setLat   *metrics.Histogram
	hits, misses     *metrics.Counter
	sets             *metrics.Counter

	errs       *metrics.Counter
	retries    *metrics.Counter
	reconnects *metrics.Counter
}

func newLoadMetrics(reg *metrics.Registry) *loadMetrics {
	return &loadMetrics{
		getReqs: reg.Counter(metricRequestsTotal, "Requests issued, by command.",
			"side", "client", "cmd", "get"),
		setReqs: reg.Counter(metricRequestsTotal, "Requests issued, by command.",
			"side", "client", "cmd", "set"),
		getLat: reg.Histogram(metricRequestDuration, "Request round-trip latency in seconds, by command.",
			metrics.DefLatencyBuckets, "side", "client", "cmd", "get"),
		setLat: reg.Histogram(metricRequestDuration, "Request round-trip latency in seconds, by command.",
			metrics.DefLatencyBuckets, "side", "client", "cmd", "set"),
		hits: reg.Counter(metricHits, "Gets that found the key.",
			"side", "client"),
		misses: reg.Counter(metricMisses, "Gets that missed.",
			"side", "client"),
		sets: reg.Counter(metricSets, "Cache-aside fills issued on misses.",
			"side", "client"),
		errs: reg.Counter("cache_client_errors_total", "Operations failed after exhausting the retry budget.",
			"side", "client"),
		retries: reg.Counter("cache_client_retries_total", "Operation retries after transport failures.",
			"side", "client"),
		reconnects: reg.Counter("cache_client_reconnects_total", "Connections re-established after transport failures.",
			"side", "client"),
	}
}

// LoadResult aggregates one load run.
type LoadResult struct {
	Ops     int64
	Hits    int64
	Sets    int64
	Elapsed time.Duration
	// Errors counts operations abandoned after exhausting the retry budget
	// (resilient mode only; in strict mode any error aborts the run).
	Errors int64
	// Retries and Reconnects aggregate the self-healing clients' recovery
	// work; both stay zero in strict mode or on a fault-free run.
	Retries    int64
	Reconnects int64
	// Latency holds get round-trip samples across all connections.
	Latency *stats.LatencyRecorder
}

// HitRatio returns hits/ops.
func (r *LoadResult) HitRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Ops)
}

// OpsPerSecond returns the aggregate closed-loop get rate.
func (r *LoadResult) OpsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// loadStreams builds the per-connection key streams.
func loadStreams(cfg LoadConfig) ([][]uint64, error) {
	if cfg.Family == "" {
		return concurrent.ZipfStreams(cfg.Conns, cfg.TotalOps, cfg.KeySpace, cfg.Seed), nil
	}
	fam, ok := workload.FamilyByName(cfg.Family)
	if !ok {
		return nil, fmt.Errorf("server: unknown workload family %q", cfg.Family)
	}
	tr := fam.Generate(cfg.Seed, cfg.KeySpace, cfg.TotalOps)
	streams := make([][]uint64, cfg.Conns)
	for i := range streams {
		lo := len(tr.Requests) * i / cfg.Conns
		hi := len(tr.Requests) * (i + 1) / cfg.Conns
		keys := make([]uint64, 0, hi-lo)
		for _, r := range tr.Requests[lo:hi] {
			keys = append(keys, r.Key)
		}
		streams[i] = keys
	}
	return streams, nil
}

// RunLoad drives a cache server with closed-loop load (or open-loop when
// cfg.Rate is set) and returns the aggregate result. Values embed the key
// (prefix "key:") and are verified on every hit, so any cross-key
// corruption in the serving stack fails the run.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.ValueLen <= 0 {
		cfg.ValueLen = 64
	}
	if cfg.LatencySamples <= 0 {
		cfg.LatencySamples = 1 << 16
	}
	streams, err := loadStreams(cfg)
	if err != nil {
		return nil, err
	}
	var lm *loadMetrics
	if cfg.Metrics != nil {
		lm = newLoadMetrics(cfg.Metrics)
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
		total     connResult
		recorders = make([]*stats.LatencyRecorder, len(streams))
	)
	start := time.Now()
	for i, stream := range streams {
		wg.Add(1)
		go func(i int, keys []uint64) {
			defer wg.Done()
			rec := stats.NewLatencyRecorder(cfg.LatencySamples, cfg.Seed+int64(i))
			recorders[i] = rec
			r := driveConn(cfg, i, keys, rec, lm)
			mu.Lock()
			total.hits += r.hits
			total.sets += r.sets
			total.ops += r.ops
			total.errs += r.errs
			total.retries += r.retries
			total.reconnects += r.reconnects
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			mu.Unlock()
		}(i, stream)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res := &LoadResult{
		Ops:        total.ops,
		Hits:       total.hits,
		Sets:       total.sets,
		Elapsed:    time.Since(start),
		Errors:     total.errs,
		Retries:    total.retries,
		Reconnects: total.reconnects,
		Latency:    stats.NewLatencyRecorder(cfg.LatencySamples*len(streams), cfg.Seed),
	}
	for _, rec := range recorders {
		res.Latency.Merge(rec)
	}
	return res, nil
}

// connResult is one connection's tally (and the run's aggregate).
type connResult struct {
	hits, sets, ops           int64
	errs, retries, reconnects int64
	err                       error
}

// driveConn runs one connection's closed loop. lm may be nil (metrics off).
// In resilient mode (cfg.Dial set with MaxRetries > 0) operation errors are
// counted and skipped; latency is recorded only for successful gets so
// retry storms don't pollute the distribution with timeout ceilings.
func driveConn(cfg LoadConfig, connID int, keys []uint64, rec *stats.LatencyRecorder, lm *loadMetrics) (res connResult) {
	var (
		c   LoadConn
		err error
	)
	resilient := false
	switch {
	case cfg.DialFunc != nil:
		resilient = cfg.Resilient
		c, err = cfg.DialFunc(connID)
	case cfg.Dial != nil:
		dc := *cfg.Dial
		dc.Addr = cfg.Addr
		if dc.Seed == 0 {
			dc.Seed = cfg.Seed + int64(connID)
		}
		resilient = dc.MaxRetries > 0
		c, err = DialWithConfig(dc)
	default:
		c, err = Dial(cfg.Addr)
	}
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		res.retries = c.Retries()
		res.reconnects = c.Reconnects()
		if lm != nil {
			lm.retries.Add(res.retries)
			lm.reconnects.Add(res.reconnects)
		}
		c.Close()
	}()
	fail := func(err error) bool {
		if resilient {
			res.errs++
			if lm != nil {
				lm.errs.Inc()
			}
			return false
		}
		res.err = err
		return true
	}
	// Open-loop schedule: this connection owns every Conns-th slot of the
	// aggregate arrival process, offset by its ID so the fleet's sends
	// interleave instead of bursting together.
	var (
		interval time.Duration
		sched    time.Time
	)
	if cfg.Rate > 0 {
		conns := cfg.Conns
		if conns <= 0 {
			conns = 1
		}
		interval = time.Duration(float64(conns) / cfg.Rate * float64(time.Second))
		sched = time.Now().Add(time.Duration(float64(connID) / cfg.Rate * float64(time.Second)))
	}
	keyBuf := make([]byte, 0, 32)
	value := make([]byte, cfg.ValueLen)
	for _, k := range keys {
		keyBuf = strconv.AppendUint(keyBuf[:0], k, 10)
		t0 := time.Now()
		if interval > 0 {
			if wait := sched.Sub(t0); wait > 0 {
				time.Sleep(wait)
			}
			// Measure from the scheduled arrival: if the loop is running
			// behind, the backlog is the server's fault and belongs in the
			// latency distribution.
			t0 = sched
			sched = sched.Add(interval)
		}
		v, found, err := c.Get(keyBuf)
		rtt := time.Since(t0)
		if lm != nil {
			lm.getReqs.Inc()
		}
		if err != nil {
			if fail(err) {
				return res
			}
			continue
		}
		rec.Record(rtt)
		if lm != nil {
			lm.getLat.ObserveDuration(rtt)
			if found {
				lm.hits.Inc()
			} else {
				lm.misses.Inc()
			}
		}
		res.ops++
		if found {
			res.hits++
			if !bytes.HasPrefix(v, keyBuf) || len(v) > len(keyBuf) && v[len(keyBuf)] != ':' {
				res.err = fmt.Errorf("server: corrupt value for key %s: %q", keyBuf, v)
				return res
			}
			continue
		}
		// Cache-aside fill: value = "<key>:" padded to ValueLen.
		fill := value[:0]
		fill = append(fill, keyBuf...)
		fill = append(fill, ':')
		for len(fill) < cfg.ValueLen {
			fill = append(fill, 'x')
		}
		t0 = time.Now()
		err = c.Set(keyBuf, 0, fill)
		if lm != nil {
			lm.setReqs.Inc()
		}
		if err != nil {
			if fail(err) {
				return res
			}
			continue
		}
		if lm != nil {
			lm.setLat.ObserveDuration(time.Since(t0))
			lm.sets.Inc()
		}
		res.sets++
	}
	return res
}
