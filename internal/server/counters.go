package server

import (
	"expvar"
	"sync/atomic"
)

// Counters are the server's operation counters. Everything is a plain
// atomic so the hit path never takes a lock for accounting; stats and
// expvar reads are snapshots, not transactions.
type Counters struct {
	Gets       atomic.Int64 // per key requested, so GetHits+GetMisses == Gets
	GetHits    atomic.Int64
	GetMisses  atomic.Int64
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

// ExpvarMap exposes the server's counters plus the store gauges as an
// expvar.Map of live Funcs. The caller decides whether and under what name
// to expvar.Publish it (publishing is global and can only happen once per
// name per process, so the server never does it itself).
func (s *Server) ExpvarMap() *expvar.Map {
	m := new(expvar.Map)
	gauge := func(name string, f func() int64) {
		m.Set(name, expvar.Func(func() any { return f() }))
	}
	gauge("cmd_get", s.counters.Gets.Load)
	gauge("get_hits", s.counters.GetHits.Load)
	gauge("get_misses", s.counters.GetMisses.Load)
	gauge("cmd_set", s.counters.Sets.Load)
	gauge("cmd_delete", s.counters.Deletes.Load)
	gauge("delete_hits", s.counters.DeleteHits.Load)
	gauge("cmd_touch", s.counters.Touches.Load)
	gauge("touch_hits", s.counters.TouchHits.Load)
	gauge("bad_commands", s.counters.BadCommands.Load)
	gauge("bytes_read", s.counters.BytesRead.Load)
	gauge("bytes_written", s.counters.BytesWritten.Load)
	gauge("curr_connections", s.counters.CurrConns.Load)
	gauge("total_connections", s.counters.TotalConns.Load)
	gauge("rejected_connections", s.counters.RejectedConns.Load)
	gauge("accept_retries", s.counters.AcceptRetries.Load)
	gauge("conns_slow_closed", s.counters.SlowConnsClosed.Load)
	gauge("panics", s.counters.Panics.Load)
	gauge("flushes", s.counters.Flushes.Load)
	gauge("batches", s.counters.Batches.Load)
	gauge("batched_requests", s.counters.BatchedReqs.Load)
	gauge("curr_items", s.cfg.Store.Items)
	gauge("curr_bytes", s.cfg.Store.Bytes)
	gauge("evictions", func() int64 { return s.cfg.Store.Stats().Evictions })
	gauge("capacity_items", func() int64 { return int64(s.cfg.Store.Capacity()) })
	m.Set("cache", expvar.Func(func() any { return s.cfg.Store.Name() }))
	return m
}
