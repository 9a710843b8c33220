package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/overload"
)

// Batched request/response I/O, the server's one data path. Two
// amortizations:
//
//   - connBatch accumulates consecutive pipelined get/gets requests and
//     dispatches them as ONE shard-batched GetMulti across the whole run,
//     so each data shard's lock is taken once per pipelined batch instead
//     of once per request.
//   - multiBuf assembles the responses as an iovec list (net.Buffers):
//     headers and small values accumulate in pooled 64 KiB chunks, large
//     values are queued as references into the GetMulti arena with no
//     extra copy, and one writev delivers the whole batch.
//
// Both are safe under the parser's aliasing rules: a get request's keys
// point into the bufio.Reader's buffer, which is only compacted when the
// reader refills from the socket. The accumulator only parses a request
// when its complete command line is already buffered (so no refill can
// happen); a get that needed a refill is parsed into an empty batch; and
// everything pending is dispatched before any code path that might refill
// (a set body read, a blocking parse, a wait for data).

const (
	// batchChunkSize is the multiBuf chunk size.
	batchChunkSize = writeBufSize
	// iovRefMin is the value size at which batched assembly stops copying
	// the value into the chunk and queues it as its own iovec entry
	// pointing into the GetMulti arena. Below it, a memcpy is cheaper than
	// growing the iovec list.
	iovRefMin = 128
	// maxQueuedResp bounds the bytes a connection may queue before an
	// intra-batch flush, so one huge pipelined burst cannot hold the whole
	// response set in memory.
	maxQueuedResp = 256 << 10

	// maxBatchReqs / maxBatchKeys bound one merged dispatch: at most this
	// many pipelined get requests / total keys share one GetMulti call.
	maxBatchReqs = 64
	maxBatchKeys = 512
)

// multiBuf is the batched connection writer: an ordered list of response
// segments flushed with one writev (net.Buffers). It implements respWriter,
// so the dispatch helpers write into it exactly as they write into a
// bufio.Writer, including the AvailableBuffer append-in-place contract.
type multiBuf struct {
	dst io.Writer
	err error // sticky, like bufio.Writer

	cur  []byte // current chunk (len == cap, fixed)
	w    int    // write offset in cur
	open int    // start of the unsealed segment in cur

	segs   net.Buffers // completed segments, in response order
	inuse  [][]byte    // full chunks referenced by segs, recycled at flush
	free   [][]byte    // chunk free list (steady state: no allocation)
	queued int         // bytes sealed into segs

	// iovSave parks segs' full-capacity slice header across WriteTo, which
	// consumes the slice it is given. Calling WriteTo on the field (heap)
	// rather than a local also matters: Buffers.WriteTo hands its receiver
	// pointer to an interface method, so a stack local would escape and
	// cost one allocation per writev.
	iovSave net.Buffers

	// vals is the GetMulti arena for merged batches. Values referenced from
	// segs (valsRefd) pin its contents until the next flush; without live
	// references it is rewound before each merged dispatch.
	vals     []byte
	valsRefd bool

	flushes *atomic.Int64 // server's flush counter; every writev counts
}

func newMultiBuf(dst io.Writer, flushes *atomic.Int64) *multiBuf {
	return &multiBuf{dst: dst, cur: make([]byte, batchChunkSize), flushes: flushes}
}

// Buffered reports the bytes queued for the next flush.
func (m *multiBuf) Buffered() int { return m.queued + (m.w - m.open) }

// seal closes the open segment (if any) into the iovec list.
func (m *multiBuf) seal() {
	if m.w > m.open {
		m.segs = append(m.segs, m.cur[m.open:m.w])
		m.queued += m.w - m.open
		m.open = m.w
	}
}

// advance seals the open segment and moves to a fresh chunk, retiring the
// full one to inuse so flush can recycle it.
func (m *multiBuf) advance() {
	m.seal()
	m.inuse = append(m.inuse, m.cur)
	if n := len(m.free); n > 0 {
		m.cur = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		m.cur = make([]byte, batchChunkSize)
	}
	m.w, m.open = 0, 0
}

// AvailableBuffer returns an empty slice over the current chunk's free
// space, for append-style writes (the bufio.Writer contract).
func (m *multiBuf) AvailableBuffer() []byte { return m.cur[m.w:m.w] }

// Write appends p to the response. If p was built by appending into
// AvailableBuffer it is recognized in place (no copy); otherwise it is
// copied, spanning chunks as needed.
func (m *multiBuf) Write(p []byte) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	n := len(p)
	if n == 0 {
		return 0, nil
	}
	if m.w+n <= len(m.cur) && &m.cur[m.w] == &p[0] {
		m.w += n // appended in place via AvailableBuffer
	} else {
		for len(p) > 0 {
			if m.w == len(m.cur) {
				m.advance()
			}
			c := copy(m.cur[m.w:], p)
			m.w += c
			p = p[c:]
		}
	}
	m.maybeFlush()
	return n, m.err
}

// WriteString appends s (always by copy).
func (m *multiBuf) WriteString(s string) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	n := len(s)
	for len(s) > 0 {
		if m.w == len(m.cur) {
			m.advance()
		}
		c := copy(m.cur[m.w:], s)
		m.w += c
		s = s[c:]
	}
	m.maybeFlush()
	return n, m.err
}

// WriteByte appends one byte.
func (m *multiBuf) WriteByte(c byte) error {
	if m.err != nil {
		return m.err
	}
	if m.w == len(m.cur) {
		m.advance()
	}
	m.cur[m.w] = c
	m.w++
	return nil
}

// writeRef queues v as its own iovec entry, with no copy. v must stay
// valid until the next flush — in practice it points into m.vals, whose
// rewind discipline guarantees exactly that.
func (m *multiBuf) writeRef(v []byte) {
	if m.err != nil {
		return
	}
	m.seal()
	m.segs = append(m.segs, v)
	m.queued += len(v)
	m.maybeFlush()
}

// maybeFlush bounds queued memory: one intra-batch flush when the pending
// responses outgrow the budget. The connection loop's lazy arm before each
// request keeps the write deadline at least WriteTimeout ahead, so the
// syscall is bounded like any other flush.
func (m *multiBuf) maybeFlush() {
	if m.Buffered() >= maxQueuedResp {
		m.Flush()
	}
}

// Flush delivers every queued segment with one writev (net.Buffers uses
// writev on *net.TCPConn, sequential writes elsewhere) and recycles the
// chunks. The error is sticky.
func (m *multiBuf) Flush() error {
	if m.err != nil {
		return m.err
	}
	m.seal()
	if len(m.segs) > 0 {
		m.iovSave = m.segs
		m.flushes.Add(1)
		if _, err := m.segs.WriteTo(m.dst); err != nil {
			m.err = err
		}
		m.segs = m.iovSave
	}
	m.free = append(m.free, m.inuse...)
	m.inuse = m.inuse[:0]
	m.segs = m.segs[:0]
	m.queued = 0
	m.w, m.open = 0, 0
	// The arena itself (m.vals) is deliberately NOT touched here: a flush
	// can fire mid-assembly (maybeFlush), and the rest of that merged batch
	// still slices values out of it. Clearing valsRefd is what allows the
	// next merged dispatch to rewind it — every segment that referenced the
	// arena has just been delivered.
	m.valsRefd = false
	return m.err
}

// connBatch accumulates consecutive pipelined get/gets requests for one
// merged shard-batched dispatch. Each pending request owns a Request slot
// (so its keys, which alias the read buffer, survive until dispatch) and a
// parse-start stamp for the tracer.
type connBatch struct {
	reqs   []Request
	starts []time.Time
	n      int // pending requests
	nkeys  int // total keys across pending requests

	// Merged dispatch scratch, reused across batches.
	keys [][]byte
	ids  []uint64
	hits []concurrent.MultiHit
}

func newConnBatch() *connBatch {
	return &connBatch{
		reqs:   make([]Request, maxBatchReqs),
		starts: make([]time.Time, maxBatchReqs),
	}
}

// full reports whether the next get must wait for a dispatch first.
func (b *connBatch) full() bool {
	return b.n == len(b.reqs) || b.nkeys+MaxKeysPerGet > maxBatchKeys
}

// push makes the get just parsed into the next free slot pending, stamped
// with its parse start.
func (b *connBatch) push(start time.Time) {
	b.starts[b.n] = start
	b.nkeys += len(b.reqs[b.n].Keys)
	b.n++
}

var getPrefix = []byte("get")

// batchableLine reports whether the buffered window starts with a complete
// get/gets command line. Only then can the accumulator parse it: the whole
// line is in the buffer, so ParseRequest cannot trigger a refill (which
// would compact the buffer and dangle the keys of already-pending
// requests), and a get line never reads a body.
func batchableLine(win []byte) bool {
	if !bytes.HasPrefix(win, getPrefix) {
		return false
	}
	rest := win[len(getPrefix):]
	if len(rest) > 0 && rest[0] == 's' { // "gets"
		rest = rest[1:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return false // "get\r\n", "getx ...": the normal path answers those
	}
	return bytes.IndexByte(win, '\n') >= 0
}

// tryBatchParse accumulates one fully-buffered pipelined get into the
// batch. It returns handled=true when a request was accumulated; a non-nil
// error is always a recoverable ClientError from a complete get line (the
// caller must dispatch pending responses before reporting it, to keep
// responses in request order).
func (s *Server) tryBatchParse(br *bufio.Reader, bt *connBatch, tr *connTracer) (bool, error) {
	if bt.full() {
		return false, nil
	}
	buffered := br.Buffered()
	if buffered == 0 {
		return false, nil
	}
	win, err := br.Peek(buffered)
	if err != nil || !batchableLine(win) {
		return false, nil
	}
	pStart := tr.begin()
	if err := ParseRequest(br, &bt.reqs[bt.n], s.cfg.MaxValueLen); err != nil {
		return false, err
	}
	bt.push(pStart)
	return true, nil
}

// dispatchPending answers every accumulated get in request order. A single
// single-key request takes the zero-copy AppendHit path; anything larger is
// merged into one GetMulti covering the whole batch, with large values
// delivered as iovec references into the arena (no copy between the shard
// map and the socket).
func (s *Server) dispatchPending(mb *multiBuf, bt *connBatch, tr *connTracer) {
	if bt.n == 0 {
		return
	}
	n := bt.n
	bt.n = 0
	nkeys := bt.nkeys
	bt.nkeys = 0
	s.counters.Batches.Add(1)
	s.counters.BatchedReqs.Add(int64(n))

	var start time.Time
	if s.metrics != nil || tr.enabled() || s.limiter != nil {
		start = time.Now()
	}
	if n == 1 && len(bt.reqs[0].Keys) == 1 {
		req := &bt.reqs[0]
		s.dispatch(mb, req)
		s.finishBatched(bt, 0, 1, start, tr)
		return
	}

	// The merged batch is serviced as one unit, so it is admitted as one:
	// a single limiter slot covers the whole GetMulti, and a refusal
	// answers every pending request with the same shed reply.
	if s.limiter != nil {
		if reason := s.limiter.Acquire(false); reason != overload.ShedNone {
			for i := 0; i < n; i++ {
				writeShedReply(mb, &bt.reqs[i], reason)
			}
			s.finishBatched(bt, 0, n, start, tr)
			return
		}
		defer func() { s.limiter.Release(time.Since(start)) }()
	}

	// Merged dispatch: every key of every pending request in one
	// shard-batched lookup.
	keys, ids := bt.keys[:0], bt.ids[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, bt.reqs[i].Keys...)
		ids = append(ids, bt.reqs[i].Digests...)
	}
	bt.keys, bt.ids = keys, ids
	if cap(bt.hits) < nkeys {
		bt.hits = make([]concurrent.MultiHit, nkeys)
	}
	hits := bt.hits[:nkeys]
	if !mb.valsRefd {
		// No queued segment references the arena, so it can be rewound (or
		// dropped, if one huge batch grew it past the per-value cap).
		if cap(mb.vals) > DefaultMaxValueLen {
			mb.vals = nil
		} else {
			mb.vals = mb.vals[:0]
		}
	}
	mb.vals = s.cfg.Store.GetMulti(mb.vals, keys, ids, hits)

	k := 0
	for i := 0; i < n; i++ {
		req := &bt.reqs[i]
		withCAS := req.Op == OpGets
		req.outcome = OutcomeMiss
		for j := range req.Keys {
			h := hits[k]
			k++
			if !h.Hit {
				continue
			}
			req.outcome = OutcomeHit
			v := mb.vals[h.Start:h.End]
			s.counters.BytesWritten.Add(int64(len(v)))
			mb.Write(appendValueHeader(mb.AvailableBuffer(), req.Keys[j], h.Flags, len(v), h.CAS, withCAS))
			if len(v) >= iovRefMin {
				mb.writeRef(v)
				mb.valsRefd = true
			} else {
				mb.Write(v)
			}
			mb.WriteString("\r\n")
		}
		writeEnd(mb)
	}
	s.finishBatched(bt, 0, n, start, tr)
}

// finishBatched records metrics and spans for pending requests [from, to).
// The dispatch stamp is shared across the batch — the same sharing the
// flush stamp already does — because the batch was serviced as one unit.
func (s *Server) finishBatched(bt *connBatch, from, to int, start time.Time, tr *connTracer) {
	var done time.Time
	if s.metrics != nil || tr.enabled() {
		done = time.Now()
	}
	for i := from; i < to; i++ {
		req := &bt.reqs[i]
		if m := s.metrics; m != nil {
			m.requests[req.Op].Inc()
			m.duration[req.Op].ObserveDuration(done.Sub(start))
		}
		if tr.enabled() {
			tr.observe(req, bt.starts[i], start, done)
		}
	}
}
