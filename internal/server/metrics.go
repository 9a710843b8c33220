package server

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/overload"
)

// Families the load client shares with the server. Both sides report them
// under a `side` label ("server" or "client"), so the two ends of one run
// line up series for series and bucket for bucket.
const (
	metricRequestsTotal   = "cache_requests_total"           // labels: side, cmd
	metricRequestDuration = "cache_request_duration_seconds" // labels: side, cmd
	metricHits            = "cache_hits_total"
	metricMisses          = "cache_misses_total"
	metricSets            = "cache_sets_total"
)

// opNames maps Op to its cmd label value.
var opNames = [...]string{
	OpInvalid: "invalid",
	OpGet:     "get",
	OpGets:    "gets",
	OpSet:     "set",
	OpDelete:  "delete",
	OpStats:   "stats",
	OpQuit:    "quit",
	OpNoop:    "noop",
	OpVersion: "version",
	OpTouch:   "touch",
	OpGete:    "gete",
}

// serverMetrics holds the direct (non-func-backed) instruments the request
// loop records into. Per-command arrays are indexed by Op so the hot path
// does no map lookups; OpInvalid slots stay nil because dispatch never sees
// an invalid op.
type serverMetrics struct {
	requests [len(opNames)]*metrics.Counter
	duration [len(opNames)]*metrics.Histogram
}

// initMetrics registers every server instrument and collector into reg:
// the per-command counters and histograms, one series per stat-table row
// that names a family, sheds by reason, and the per-shard families.
// Called once from New when Config.Metrics is set; with no registry the
// serving path records only the always-on atomic Counters.
func (s *Server) initMetrics(reg *metrics.Registry) {
	m := &serverMetrics{}
	for op := OpGet; int(op) < len(opNames); op++ {
		m.requests[op] = reg.Counter(metricRequestsTotal,
			"Requests served, by command.",
			"side", "server", "cmd", opNames[op])
		m.duration[op] = reg.Histogram(metricRequestDuration,
			"Request service latency in seconds (parse excluded), by command.",
			metrics.DefLatencyBuckets,
			"side", "server", "cmd", opNames[op])
	}
	s.registerStatRows(reg)

	if l := s.limiter; l != nil {
		for _, r := range overload.ShedReasons() {
			reg.CounterFunc("cache_shed_total", "Requests shed by the overload limiter, by reason.",
				func() int64 { return l.ShedCount(r) },
				"side", "server", "reason", r.String())
		}
	}

	store := s.cfg.Store
	policy := store.Name()
	for i := range store.ShardStats() {
		shard := strconv.Itoa(i)
		reg.GaugeFunc("cache_shard_items", "Objects cached in one policy shard.",
			func() float64 { return float64(store.ShardStats()[i].Len) },
			"policy", policy, "shard", shard)
		reg.CounterFunc("cache_shard_evictions_total", "Evictions from one policy shard.",
			func() int64 { return store.ShardStats()[i].Evictions },
			"policy", policy, "shard", shard)
	}

	s.metrics = m
	// After s.metrics is set: the windowed families' latency percentiles
	// read the per-command histograms registered above.
	s.initAnalyticsMetrics(reg)
}
