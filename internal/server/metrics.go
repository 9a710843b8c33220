package server

import (
	"strconv"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/overload"
)

// Metric family names shared by the server and the load client. Families
// that both sides report carry a `side` label ("server" or "client") so the
// two ends of one run line up series for series and bucket for bucket —
// the hit-ratio-and-throughput-together discipline the serving-stack
// literature calls for.
const (
	// MetricRequestsTotal counts requests by command (labels: side, cmd).
	MetricRequestsTotal = "cache_requests_total"
	// MetricRequestDuration is the per-command request-latency histogram in
	// seconds (labels: side, cmd), bucketed by metrics.DefLatencyBuckets on
	// both sides.
	MetricRequestDuration = "cache_request_duration_seconds"
	// MetricHits / MetricMisses partition lookups (labels: side, and
	// policy on the server side).
	MetricHits   = "cache_hits_total"
	MetricMisses = "cache_misses_total"
	// MetricSets and MetricDeletes count store mutations.
	MetricSets    = "cache_sets_total"
	MetricDeletes = "cache_deletes_total"
	// MetricEvictions counts capacity evictions (server only).
	MetricEvictions = "cache_evictions_total"

	// Server-only occupancy gauges. UsedBytes/MaxBytes are the accounted
	// byte budget (key+value+EntryOverhead per object; MaxBytes is 0 for
	// entry-capped caches), as opposed to MetricValueBytes which is raw
	// value payload.
	MetricItems            = "cache_items"
	MetricValueBytes       = "cache_value_bytes"
	MetricCapacityItems    = "cache_capacity_items"
	MetricUsedBytes        = "cache_used_bytes"
	MetricMaxBytes         = "cache_max_bytes"
	MetricExpiredProactive = "cache_expired_proactive_total"

	// Per-shard policy-plane balance (labels: policy, shard).
	MetricShardItems     = "cache_shard_items"
	MetricShardEvictions = "cache_shard_evictions_total"

	// Observability-plane counters: how much the lifecycle-event and
	// request-span rings have recorded and shed. A climbing dropped count
	// means the retained window is shorter than the scrape interval.
	MetricObsEvents        = "cache_obs_events_total"
	MetricObsEventsDropped = "cache_obs_events_dropped_total"
	MetricObsSpans         = "cache_obs_spans_total"
	MetricObsSpansDropped  = "cache_obs_spans_dropped_total"
	MetricObsSlowRequests  = "cache_obs_slow_requests_total"

	// Transport-level server counters.
	MetricConnsCurrent  = "cache_server_connections_current"
	MetricConnsTotal    = "cache_server_connections_total"
	MetricConnsRejected = "cache_server_connections_rejected_total"
	MetricBadCommands   = "cache_server_bad_commands_total"
	MetricBytesRead     = "cache_server_value_bytes_read_total"
	MetricBytesWritten  = "cache_server_value_bytes_written_total"

	// Resilience counters: faults survived rather than propagated. All
	// three should sit at zero in a healthy deployment.
	MetricPanics          = "cache_server_panics_total"
	MetricAcceptRetries   = "cache_server_accept_retries_total"
	MetricConnsSlowClosed = "cache_server_connections_slow_closed_total"

	// Batched data-plane families. batched_requests / flushes is the
	// syscall-amortization ratio the batched data path optimizes.
	MetricFlushes     = "cache_server_flushes_total"
	MetricBatches     = "cache_server_batches_total"
	MetricBatchedReqs = "cache_server_batched_requests_total"

	// Live-analytics families. cache_mrc_* expose the online SHARDS
	// miss-ratio estimator (-mrc-sample; absent without it);
	// cache_window_* aggregate the telemetry ring over sliding windows
	// (label: window = 1m|5m|1h).
	MetricMRCPredictedHitRatio = "cache_mrc_predicted_hit_ratio" // labels: scale (0.5x|1x|2x|4x)
	MetricMRCMarginalHit       = "cache_mrc_marginal_hit_ratio_per_mib"
	MetricMRCSampleRate        = "cache_mrc_sample_rate"
	MetricMRCTrackedKeys       = "cache_mrc_tracked_keys"
	MetricMRCSampledTotal      = "cache_mrc_sampled_accesses_total"
	MetricMRCDroppedTotal      = "cache_mrc_samples_dropped_total"
	MetricWindowHitRatio       = "cache_window_hit_ratio"
	MetricWindowOpsPerSec      = "cache_window_ops_per_sec"
	MetricWindowEvictions      = "cache_window_evictions"
	MetricWindowP50            = "cache_window_p50_request_seconds"
	MetricWindowP99            = "cache_window_p99_request_seconds"

	// Client-side resilience counters (side="client" families reported by
	// RunLoad's self-healing dialer).
	MetricClientErrors     = "cache_client_errors_total"
	MetricClientRetries    = "cache_client_retries_total"
	MetricClientReconnects = "cache_client_reconnects_total"

	// Cluster-tier families, reported by the router store
	// (internal/cluster) when cacheserver runs in -route mode. Per-node
	// families carry a node label (series appear as nodes join and persist
	// across a remove/rejoin, Prometheus-style).
	MetricClusterRouted          = "cache_cluster_routed_total"           // labels: node, op
	MetricClusterForwardErrors   = "cache_cluster_forward_errors_total"   // labels: node
	MetricClusterReplicaReads    = "cache_cluster_replica_reads_total"    // labels: node
	MetricClusterReplicaWrites   = "cache_cluster_replica_writes_total"   // labels: node
	MetricClusterNodes           = "cache_cluster_nodes"                  // gauge
	MetricClusterHotKeys         = "cache_cluster_hot_keys"               // gauge
	MetricClusterHotPromotions   = "cache_cluster_hot_promotions_total"   //
	MetricClusterHotDemotions    = "cache_cluster_hot_demotions_total"    //
	MetricClusterTopologyChanges = "cache_cluster_topology_changes_total" // labels: op

	// Overload-control families. The server-side limiter reports sheds by
	// reason plus its live limit/inflight/pending gauges and brownout
	// pressure level; the cluster tier reports per-backend breaker state
	// (0 closed / 1 open / 2 half-open), failure-detector health and phi,
	// ejection churn, and retry-budget exhaustion.
	MetricShedTotal            = "cache_shed_total" // labels: side, reason
	MetricLimiterLimit         = "cache_limiter_limit"
	MetricLimiterInflight      = "cache_limiter_inflight"
	MetricLimiterPending       = "cache_limiter_pending"
	MetricPressureLevel        = "cache_pressure_level"
	MetricBreakerState         = "cache_breaker_state"                   // labels: node
	MetricBreakerOpens         = "cache_breaker_opens_total"             // labels: node
	MetricNodeHealthy          = "cache_cluster_node_healthy"            // labels: node
	MetricNodePhi              = "cache_cluster_node_phi"                // labels: node
	MetricNodeEjections        = "cache_cluster_node_ejections_total"    // labels: node
	MetricNodeReadmissions     = "cache_cluster_node_readmissions_total" // labels: node
	MetricProbes               = "cache_cluster_probes_total"            // labels: node, result
	MetricRetryBudgetExhausted = "cache_retry_budget_exhausted_total"    // labels: side
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

// initMetrics registers every server instrument and collector into reg.
// Called once from New when Config.Metrics is set; with no registry the
// serving path records only the always-on atomic Counters.
func (s *Server) initMetrics(reg *metrics.Registry) {
	m := &serverMetrics{}
	for op := OpGet; int(op) < len(opNames); op++ {
		m.requests[op] = reg.Counter(MetricRequestsTotal,
			"Requests served, by command.",
			"side", "server", "cmd", opNames[op])
		m.duration[op] = reg.Histogram(MetricRequestDuration,
			"Request service latency in seconds (parse excluded), by command.",
			metrics.DefLatencyBuckets,
			"side", "server", "cmd", opNames[op])
	}

	reg.GaugeFunc(MetricConnsCurrent, "Open client connections.",
		func() float64 { return float64(s.counters.CurrConns.Load()) })
	reg.CounterFunc(MetricConnsTotal, "Connections accepted since start.",
		s.counters.TotalConns.Load)
	reg.CounterFunc(MetricConnsRejected, "Connections rejected over MaxConns.",
		s.counters.RejectedConns.Load)
	reg.CounterFunc(MetricBadCommands, "Protocol errors answered on kept connections.",
		s.counters.BadCommands.Load)
	reg.CounterFunc(MetricBytesRead, "Value payload bytes received in set commands.",
		s.counters.BytesRead.Load)
	reg.CounterFunc(MetricBytesWritten, "Value payload bytes sent in get responses.",
		s.counters.BytesWritten.Load)
	reg.CounterFunc(MetricPanics, "Connection-handler panics isolated (conn closed, server kept serving).",
		s.counters.Panics.Load)
	reg.CounterFunc(MetricAcceptRetries, "Transient accept errors survived with backoff.",
		s.counters.AcceptRetries.Load)
	reg.CounterFunc(MetricConnsSlowClosed, "Slow readers evicted at the write deadline.",
		s.counters.SlowConnsClosed.Load)
	reg.CounterFunc(MetricFlushes, "Response deliveries to the socket (writev calls).",
		s.counters.Flushes.Load)
	reg.CounterFunc(MetricBatches, "Merged get dispatches (one shard-batched lookup each).",
		s.counters.Batches.Load)
	reg.CounterFunc(MetricBatchedReqs, "Pipelined requests covered by merged dispatches.",
		s.counters.BatchedReqs.Load)

	if l := s.limiter; l != nil {
		for _, r := range overload.ShedReasons() {
			reason := r
			reg.CounterFunc(MetricShedTotal, "Requests shed by the overload limiter, by reason.",
				func() int64 { return l.ShedCount(reason) },
				"side", "server", "reason", reason.String())
		}
		reg.GaugeFunc(MetricLimiterLimit, "Adaptive concurrency limit (AIMD against the p99 target).",
			func() float64 { return float64(l.Snapshot().Limit) })
		reg.GaugeFunc(MetricLimiterInflight, "Requests currently holding a limiter slot.",
			func() float64 { return float64(l.Snapshot().Inflight) })
		reg.GaugeFunc(MetricLimiterPending, "Requests waiting in the bounded admission queue.",
			func() float64 { return float64(l.Snapshot().Pending) })
		reg.GaugeFunc(MetricPressureLevel, "Brownout pressure level (0 healthy, 1 drop writes, 2 miss-fast reads).",
			func() float64 { return float64(l.Level()) })
	}

	if ev := s.cfg.Events; ev != nil {
		reg.CounterFunc(MetricObsEvents, "Lifecycle events recorded.", ev.Total)
		reg.CounterFunc(MetricObsEventsDropped, "Lifecycle events overwritten before being read.", ev.Dropped)
	}
	if sp := s.spans; sp != nil {
		reg.CounterFunc(MetricObsSpans, "Request spans recorded.", sp.Total)
		reg.CounterFunc(MetricObsSpansDropped, "Request spans overwritten before being read.", sp.Dropped)
		reg.CounterFunc(MetricObsSlowRequests, "Spans recorded for crossing the slow-request threshold.", sp.SlowCount)
	}

	RegisterStoreMetrics(reg, s.cfg.Store)
	s.metrics = m
	// After s.metrics is set: the windowed families' latency percentiles
	// read the per-command histograms registered above.
	s.initAnalyticsMetrics(reg)
}

// RegisterStoreMetrics exposes a KV store's hit/miss/eviction/occupancy
// snapshots as scrape-time collectors, aggregated under the policy label
// and per shard. It is exported so non-Server embedders of concurrent.KV
// can publish the same families.
func RegisterStoreMetrics(reg *metrics.Registry, store Store) {
	policy := store.Name()
	stat := func(field func(concurrent.Snapshot) int64) func() int64 {
		return func() int64 { return field(store.Stats()) }
	}
	reg.CounterFunc(MetricHits, "Store lookups that found the key.",
		stat(func(s concurrent.Snapshot) int64 { return s.Hits }),
		"side", "server", "policy", policy)
	reg.CounterFunc(MetricMisses, "Store lookups that missed.",
		stat(func(s concurrent.Snapshot) int64 { return s.Misses }),
		"side", "server", "policy", policy)
	reg.CounterFunc(MetricSets, "Store writes (inserts and overwrites).",
		stat(func(s concurrent.Snapshot) int64 { return s.Sets }),
		"side", "server", "policy", policy)
	reg.CounterFunc(MetricDeletes, "Store deletes that removed a key.",
		stat(func(s concurrent.Snapshot) int64 { return s.Deletes }),
		"side", "server", "policy", policy)
	reg.CounterFunc(MetricEvictions, "Objects evicted to make room.",
		stat(func(s concurrent.Snapshot) int64 { return s.Evictions }),
		"side", "server", "policy", policy)
	reg.CounterFunc(MetricExpiredProactive, "Objects reclaimed proactively by the TTL timer wheel.",
		stat(func(s concurrent.Snapshot) int64 { return s.Expired }),
		"side", "server", "policy", policy)

	reg.GaugeFunc(MetricItems, "Objects currently cached.",
		func() float64 { return float64(store.Items()) }, "policy", policy)
	reg.GaugeFunc(MetricValueBytes, "Value bytes currently cached.",
		func() float64 { return float64(store.Bytes()) }, "policy", policy)
	reg.GaugeFunc(MetricCapacityItems, "Configured capacity in objects.",
		func() float64 { return float64(store.Capacity()) }, "policy", policy)
	reg.GaugeFunc(MetricUsedBytes, "Accounted bytes currently cached (key+value+overhead).",
		func() float64 { return float64(store.Stats().UsedBytes) }, "policy", policy)
	reg.GaugeFunc(MetricMaxBytes, "Configured byte budget (0 when capped by entries).",
		func() float64 { return float64(store.Stats().MaxBytes) }, "policy", policy)

	for i := range store.ShardStats() {
		shard := strconv.Itoa(i)
		reg.GaugeFunc(MetricShardItems, "Objects cached in one policy shard.",
			func() float64 { return float64(store.ShardStats()[i].Len) },
			"policy", policy, "shard", shard)
		reg.CounterFunc(MetricShardEvictions, "Evictions from one policy shard.",
			func() int64 { return store.ShardStats()[i].Evictions },
			"policy", policy, "shard", shard)
	}
}
