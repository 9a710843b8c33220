package server

import (
	"expvar"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/overload"
)

// Counters are the server's operation counters. Everything is a plain
// atomic so the hit path never takes a lock for accounting; stats and
// expvar reads are snapshots, not transactions. Gets are not counted here:
// the store counts every looked-up key once, as a hit or a miss.
type Counters struct {
	Sets       atomic.Int64
	Deletes    atomic.Int64
	DeleteHits atomic.Int64
	Touches    atomic.Int64
	TouchHits  atomic.Int64

	BadCommands atomic.Int64

	// BytesRead counts value payload bytes received in set commands;
	// BytesWritten counts value payload bytes sent in get responses.
	// Protocol framing is excluded on both sides.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64

	CurrConns     atomic.Int64
	TotalConns    atomic.Int64
	RejectedConns atomic.Int64

	// Resilience counters: transient accept errors survived with backoff,
	// slow readers evicted at the write deadline, and handler panics
	// isolated to their connection. In a healthy deployment all three stay
	// flat; any climbing is an operational signal, not just a statistic.
	AcceptRetries   atomic.Int64
	SlowConnsClosed atomic.Int64
	Panics          atomic.Int64

	// Batched data-plane counters. Flushes counts response deliveries to
	// the socket (writev calls); Batches/BatchedReqs count merged get
	// dispatches and the pipelined requests they covered, so
	// BatchedReqs/Flushes is the syscall amortization ratio and
	// BatchedReqs/Batches the merge depth.
	Flushes     atomic.Int64
	Batches     atomic.Int64
	BatchedReqs atomic.Int64
}

// statRow declares one number the server exposes, once for every surface.
// key names it in the stats reply and the expvar map ("" when only
// /metrics carries it); family, help, kind and labels declare its /metrics
// series (no family when /metrics does not carry it). A row reads a number
// through read, or, for the two identity rows, a string through text.
type statRow struct {
	key, family, help string
	kind              metrics.Kind
	labels            labelShape
	read              func(*statView) int64
	text              func() string
}

// labelShape is the label set of a stat row's /metrics series.
type labelShape uint8

const (
	noLabels   labelShape = iota
	policyOnly            // policy="<store name>"
	sidePolicy            // side="server", policy="<store name>"
)

// Row constructors: text and stat rows are stats and expvar only; counter
// and gauge rows are also a /metrics series, or only that when key is "".
func text(key string, f func() string) statRow { return statRow{key: key, text: f} }

func stat(key string, read func(*statView) int64) statRow { return statRow{key: key, read: read} }

func counter(key, family, help string, labels labelShape, read func(*statView) int64) statRow {
	return statRow{key, family, help, metrics.KindCounter, labels, read, nil}
}

func gauge(key, family, help string, labels labelShape, read func(*statView) int64) statRow {
	return statRow{key, family, help, metrics.KindGauge, labels, read, nil}
}

// direct reads a number that needs no snapshot.
func direct(f func() int64) func(*statView) int64 {
	return func(*statView) int64 { return f() }
}

// statView is what one render of the stat table reads. The store and
// limiter snapshots are taken on first use and then reused, so a stats
// reply reads each once and a /metrics sample of a server counter reads
// neither.
type statView struct {
	s               *Server
	st              concurrent.Snapshot
	lim             overload.LimiterSnapshot
	haveSt, haveLim bool
}

func (v *statView) store() *concurrent.Snapshot {
	if !v.haveSt {
		v.st, v.haveSt = v.s.cfg.Store.Stats(), true
	}
	return &v.st
}

func (v *statView) limiter() *overload.LimiterSnapshot {
	if !v.haveLim {
		v.lim, v.haveLim = v.s.limiter.Snapshot(), true
	}
	return &v.lim
}

// statRows is the stat table: every number the server exposes, in stats
// reply order. The limiter and observability rows are there only when
// those planes are configured. get_hits and get_misses are the store's
// own counts, one per looked-up key, and cmd_get is their sum.
func (s *Server) statRows() []statRow {
	c := &s.counters
	rows := []statRow{
		text("cache", s.cfg.Store.Name),
		text("version", func() string { return Version }),
		stat("uptime_seconds", func(*statView) int64 { return int64(time.Since(s.start).Seconds()) }),
		stat("listeners", func(*statView) int64 { return int64(s.numListeners()) }),
		stat("gomaxprocs", func(*statView) int64 { return int64(runtime.GOMAXPROCS(0)) }),
		stat("data_shards", func(*statView) int64 { return int64(len(s.cfg.Store.ShardStats())) }),
		gauge("capacity_items", "cache_capacity_items", "Configured capacity in objects.", policyOnly, func(v *statView) int64 { return int64(v.store().Capacity) }),
		gauge("curr_items", "cache_items", "Objects currently cached.", policyOnly, func(v *statView) int64 { return int64(v.store().Len) }),
		gauge("curr_bytes", "cache_value_bytes", "Value bytes currently cached.", policyOnly, func(v *statView) int64 { return v.store().ValueBytes }),
		gauge("used_bytes", "cache_used_bytes", "Accounted bytes currently cached (key+value+overhead).", policyOnly, func(v *statView) int64 { return v.store().UsedBytes }),
		gauge("buffer_bytes", "cache_buffer_bytes", "Capacity of the pooled buffers holding cached keys and values.", policyOnly, func(v *statView) int64 { return v.store().BufferBytes }),
		gauge("max_bytes", "cache_max_bytes", "Configured byte budget (0 when capped by entries).", policyOnly, func(v *statView) int64 { return v.store().MaxBytes }),
		counter("expired_proactive", "cache_expired_proactive_total", "Objects reclaimed proactively by the TTL timer wheel.", sidePolicy, func(v *statView) int64 { return v.store().Expired }),
		counter("evictions", "cache_evictions_total", "Objects evicted to make room.", sidePolicy, func(v *statView) int64 { return v.store().Evictions }),
		stat("cmd_get", func(v *statView) int64 { return v.store().Hits + v.store().Misses }),
		counter("get_hits", metricHits, "Store lookups that found the key.", sidePolicy, func(v *statView) int64 { return v.store().Hits }),
		counter("get_misses", metricMisses, "Store lookups that missed.", sidePolicy, func(v *statView) int64 { return v.store().Misses }),
		stat("cmd_set", direct(c.Sets.Load)),
		stat("cmd_delete", direct(c.Deletes.Load)),
		stat("delete_hits", direct(c.DeleteHits.Load)),
		stat("cmd_touch", direct(c.Touches.Load)),
		stat("touch_hits", direct(c.TouchHits.Load)),
		counter("bad_commands", "cache_server_bad_commands_total", "Protocol errors answered on kept connections.", noLabels, direct(c.BadCommands.Load)),
		counter("bytes_read", "cache_server_value_bytes_read_total", "Value payload bytes received in set commands.", noLabels, direct(c.BytesRead.Load)),
		counter("bytes_written", "cache_server_value_bytes_written_total", "Value payload bytes sent in get responses.", noLabels, direct(c.BytesWritten.Load)),
		gauge("curr_connections", "cache_server_connections_current", "Open client connections.", noLabels, direct(c.CurrConns.Load)),
		counter("total_connections", "cache_server_connections_total", "Connections accepted since start.", noLabels, direct(c.TotalConns.Load)),
		counter("rejected_connections", "cache_server_connections_rejected_total", "Connections rejected over MaxConns.", noLabels, direct(c.RejectedConns.Load)),
		counter("conns_slow_closed", "cache_server_connections_slow_closed_total", "Slow readers evicted at the write deadline.", noLabels, direct(c.SlowConnsClosed.Load)),
		counter("accept_retries", "cache_server_accept_retries_total", "Transient accept errors survived with backoff.", noLabels, direct(c.AcceptRetries.Load)),
		counter("panics", "cache_server_panics_total", "Connection-handler panics isolated (conn closed, server kept serving).", noLabels, direct(c.Panics.Load)),
		counter("flushes", "cache_server_flushes_total", "Response deliveries to the socket (writev calls).", noLabels, direct(c.Flushes.Load)),
		counter("batches", "cache_server_batches_total", "Merged get dispatches (one shard-batched lookup each).", noLabels, direct(c.Batches.Load)),
		counter("batched_requests", "cache_server_batched_requests_total", "Pipelined requests covered by merged dispatches.", noLabels, direct(c.BatchedReqs.Load)),
		counter("", metricSets, "Store writes (inserts and overwrites).", sidePolicy, func(v *statView) int64 { return v.store().Sets }),
		counter("", "cache_deletes_total", "Store deletes that removed a key.", sidePolicy, func(v *statView) int64 { return v.store().Deletes }),
	}
	if s.limiter != nil {
		rows = append(rows,
			gauge("limiter_limit", "cache_limiter_limit", "Adaptive concurrency limit (AIMD against the p99 target).", noLabels, func(v *statView) int64 { return int64(v.limiter().Limit) }),
			gauge("limiter_inflight", "cache_limiter_inflight", "Requests currently holding a limiter slot.", noLabels, func(v *statView) int64 { return int64(v.limiter().Inflight) }),
			gauge("limiter_pending", "cache_limiter_pending", "Requests waiting in the bounded admission queue.", noLabels, func(v *statView) int64 { return int64(v.limiter().Pending) }),
			gauge("pressure_level", "cache_pressure_level", "Brownout pressure level (0 healthy, 1 drop writes, 2 miss-fast reads).", noLabels, func(v *statView) int64 { return int64(v.limiter().Level) }),
			stat("shed_total", func(v *statView) int64 { return v.limiter().ShedTotal }),
			stat("breach_epochs", func(v *statView) int64 { return v.limiter().BreachEpochs }),
		)
	}
	// A climbing dropped count means the retained window of events or spans
	// is shorter than the scrape interval.
	if ev := s.cfg.Events; ev != nil {
		rows = append(rows,
			counter("", "cache_obs_events_total", "Lifecycle events recorded.", noLabels, direct(ev.Total)),
			counter("", "cache_obs_events_dropped_total", "Lifecycle events overwritten before being read.", noLabels, direct(ev.Dropped)),
		)
	}
	if sp := s.spans; sp != nil {
		rows = append(rows,
			counter("", "cache_obs_spans_total", "Request spans recorded.", noLabels, direct(sp.Total)),
			counter("", "cache_obs_spans_dropped_total", "Request spans overwritten before being read.", noLabels, direct(sp.Dropped)),
			counter("", "cache_obs_slow_requests_total", "Spans recorded for crossing the slow-request threshold.", noLabels, direct(sp.SlowCount)),
		)
	}
	return rows
}

// writeStats renders the stats reply from one view: one store snapshot,
// one limiter snapshot. Each number is exact, but the reply is not a
// transaction across them.
func (s *Server) writeStats(bw respWriter) {
	v := statView{s: s}
	for _, r := range s.rows {
		switch {
		case r.key == "":
		case r.text != nil:
			writeStatString(bw, r.key, r.text())
		default:
			writeStat(bw, r.key, r.read(&v))
		}
	}
	writeEnd(bw)
}

// ExpvarMap exposes the stats reply's numbers, under the same keys, as an
// expvar.Map of live Funcs. The caller decides whether and under what name
// to expvar.Publish it (publishing is global and can only happen once per
// name per process, so the server never does it itself).
func (s *Server) ExpvarMap() *expvar.Map {
	m := new(expvar.Map)
	for _, r := range s.rows {
		switch {
		case r.key == "":
		case r.text != nil:
			m.Set(r.key, expvar.Func(func() any { return r.text() }))
		default:
			m.Set(r.key, expvar.Func(func() any { return r.read(&statView{s: s}) }))
		}
	}
	return m
}

// registerStatRows registers one scrape-time collector per stat row that
// names a /metrics family.
func (s *Server) registerStatRows(reg *metrics.Registry) {
	policy := s.cfg.Store.Name()
	for _, r := range s.rows {
		var labels []string
		switch r.labels {
		case policyOnly:
			labels = []string{"policy", policy}
		case sidePolicy:
			labels = []string{"side", "server", "policy", policy}
		}
		read := func() int64 { return r.read(&statView{s: s}) }
		switch {
		case r.family == "":
		case r.kind == metrics.KindGauge:
			reg.GaugeFunc(r.family, r.help, func() float64 { return float64(read()) }, labels...)
		default:
			reg.CounterFunc(r.family, r.help, read, labels...)
		}
	}
}
