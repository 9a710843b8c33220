package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"time"

	"repro/internal/overload"
)

const (
	readBufSize  = 64 << 10
	writeBufSize = 64 << 10

	// drainGrace bounds how long a draining connection waits for bytes the
	// client sent before shutdown that are still in flight or in the kernel
	// receive buffer. One quiet grace window means the pipeline is empty.
	drainGrace = 100 * time.Millisecond
)

// waitData parks until at least one request byte is buffered, without
// consuming anything. Parking in Peek rather than in the parser means
// Shutdown's SetReadDeadline(now) wake-up can never corrupt a half-read
// request: on a wake we re-peek once with a short grace deadline to pick
// up any bytes the client had already sent, and return an error only once
// a full grace window passes with nothing arriving.
//
// The idle deadline is armed lazily (a parked connection is closed between
// IdleTimeout and 1.25·IdleTimeout after its last byte); the grace deadline
// is always armed, and forgets the read stamp, because it is shorter than
// what the stamp vouches for.
func (s *Server) waitData(dl *lazyDeadlines, br *bufio.Reader) error {
	for {
		grace := s.draining.Load()
		if grace {
			dl.conn.SetReadDeadline(time.Now().Add(drainGrace))
			dl.invalidateRead()
		} else {
			dl.armRead()
		}
		// Re-check after arming: Shutdown sets draining and then overwrites
		// deadlines with "now", so if it ran in between, go around and
		// install the grace deadline instead.
		if !grace && s.draining.Load() {
			continue
		}
		_, err := br.Peek(1)
		if err == nil {
			return nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && !grace && s.draining.Load() {
			continue // woken for drain, not idle: one grace re-peek
		}
		return err // EOF, idle timeout, or drained dry
	}
}

// flushOut writes buffered responses to the socket under the write
// deadline. A deadline miss means a reader that stopped draining while the
// server holds its responses in memory; the slow client is counted and its
// connection closed (by the caller, via the returned error).
func (s *Server) flushOut(dl *lazyDeadlines, out *multiBuf) error {
	dl.armWrite()
	err := out.Flush()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.counters.SlowConnsClosed.Add(1)
			s.log.Warn("slow reader evicted at write deadline",
				"remote", dl.conn.RemoteAddr().String(), "write_timeout", s.cfg.WriteTimeout.String())
		} else {
			s.log.Debug("flush failed", "remote", dl.conn.RemoteAddr().String(), "err", err)
		}
	}
	return err
}

// handleConn runs one connection's request loop.
//
// Responses accumulate in the connection's multiBuf and are delivered, in
// one writev, only when no further pipelined request is already buffered —
// the flush-batching that makes request bursts cost one syscall each way
// instead of one per request. Every get/gets waits in the connection's
// connBatch, and consecutive ones are serviced as one merged shard-batched
// lookup; any other command is a barrier that dispatches the pending run
// first, so responses always come back in request order.
//
// A panic anywhere below — a store bug, a parser edge the fuzzer missed —
// is confined to this connection: it is counted, logged with its stack,
// and the deferred cleanup closes only this conn while the rest of the
// server keeps serving.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.removeConn(nc)
		nc.Close()
		s.counters.CurrConns.Add(-1)
	}()
	defer func() {
		if r := recover(); r != nil {
			s.counters.Panics.Add(1)
			s.log.Error("connection handler panic isolated",
				"remote", nc.RemoteAddr().String(), "panic", fmt.Sprint(r),
				"stack", string(debug.Stack()))
		}
	}()
	br := bufio.NewReaderSize(nc, readBufSize)
	out := newMultiBuf(nc, &s.counters.Flushes)
	bt := newConnBatch()
	tr := s.newConnTracer()
	dl := newLazyDeadlines(nc, s.cfg.IdleTimeout, s.cfg.WriteTimeout)
	for {
		if br.Buffered() == 0 {
			s.dispatchPending(out, bt, &tr)
			fs := tr.preFlush()
			if err := s.flushOut(&dl, out); err != nil {
				return
			}
			tr.flushed(fs)
			if err := s.waitData(&dl, br); err != nil {
				return
			}
		}
		// A request has started arriving; give the client at least one idle
		// window to deliver the rest of it, and keep the write deadline at
		// least one write window ahead so even writes that bypass the buffer
		// (values larger than it, multiBuf's intra-batch flushes) stay
		// bounded. Shutdown overwrites read deadlines with "now" behind the
		// stamp's back, so while draining the read side is armed every time.
		if s.draining.Load() {
			dl.invalidateRead()
		}
		dl.armBoth()
		if !s.serveRequest(br, out, bt, &tr) {
			fs := tr.preFlush()
			s.flushOut(&dl, out)
			tr.flushed(fs)
			return
		}
	}
}

// serveRequest takes the next request off br: a get joins the pending
// batch, anything else is answered into out after the batch is. It
// returns false when the connection must close once out is flushed: quit,
// an oversized value (its body was not consumed), or an I/O error or
// stall mid-request.
func (s *Server) serveRequest(br *bufio.Reader, out *multiBuf, bt *connBatch, tr *connTracer) bool {
	handled, berr := s.tryBatchParse(br, bt, tr)
	if handled {
		return true
	}
	// Not batchable (a mutation, an incomplete line, a full batch, a get
	// line that failed validation): the parse below may refill the read
	// buffer, which would invalidate pending requests' keys, and an error
	// line must follow the responses before it — dispatch the pending run
	// first. That leaves the batch empty.
	s.dispatchPending(out, bt, tr)
	if berr != nil {
		s.counters.BadCommands.Add(1)
		if cerr, ok := berr.(ClientError); ok {
			writeClientError(out, string(cerr))
			return true
		}
		writeServerError(out, "internal parse error")
		return false
	}
	// The empty batch's first slot doubles as the connection's request.
	req := &bt.reqs[0]
	pStart := tr.begin()
	err := ParseRequest(br, req, s.cfg.MaxValueLen)
	// A type assertion, not errors.As: the parser returns ClientError
	// unwrapped, and errors.As would move cerr to the heap on every request.
	cerr, isClientErr := err.(ClientError)
	switch {
	case err == nil && (req.Op == OpGet || req.Op == OpGets):
		// A get the accumulator declined (its line was not yet fully
		// buffered, or the batch was full) becomes the first pending request
		// of the next batch. Its keys alias the read buffer, which nothing
		// refills before that batch is dispatched.
		bt.push(pStart)
	case err == nil:
		// Latency is measured around dispatch only: the parse above blocks
		// on client bytes, so including it would measure the client's think
		// time, not the server's service time. (Spans report the parse phase
		// separately for the same reason.)
		var start time.Time
		if s.metrics != nil || tr.enabled() {
			start = time.Now()
		}
		alive := s.dispatch(out, req)
		if m := s.metrics; m != nil {
			m.requests[req.Op].Inc()
			m.duration[req.Op].ObserveDuration(time.Since(start))
		}
		if tr.enabled() {
			tr.observe(req, pStart, start, time.Now())
		}
		return alive
	case isClientErr:
		s.counters.BadCommands.Add(1)
		writeClientError(out, string(cerr))
	case errors.Is(err, ErrUnknownCommand):
		s.counters.BadCommands.Add(1)
		out.WriteString("ERROR\r\n")
	case errors.Is(err, ErrValueTooLarge):
		s.counters.BadCommands.Add(1)
		writeServerError(out, "object too large for cache")
		return false
	default:
		// I/O error, a client that stalled mid-request, or client gone.
		return false
	}
	return true
}

// isDataOp reports whether op touches the store and is therefore subject
// to admission control. Admin ops (stats, noop, version, quit) are always
// admitted so an overloaded server stays observable.
func isDataOp(op Op) bool {
	switch op {
	case OpGet, OpGets, OpGete, OpSet, OpDelete, OpTouch:
		return true
	}
	return false
}

// isWriteOp reports whether op mutates the store — the class brownout
// level 1 drops first.
func isWriteOp(op Op) bool {
	switch op {
	case OpSet, OpDelete, OpTouch:
		return true
	}
	return false
}

// writeShedReply answers a request the limiter refused. A brownout
// miss-fast read is a well-formed miss (END) the client handles as a
// cache miss, not an error; everything else is a fast SERVER_ERROR busy —
// suppressed for noreply mutations, which have no response slot.
func writeShedReply(bw respWriter, req *Request, reason overload.ShedReason) {
	if reason == overload.ShedRead {
		req.outcome = OutcomeMiss
		writeEnd(bw)
		return
	}
	req.outcome = OutcomeError
	if req.NoReply {
		return
	}
	writeServerError(bw, "busy")
}

// dispatch applies admission control around dispatchOp: data ops must
// acquire a limiter slot (possibly waiting in the bounded queue) and
// release it with the observed service latency, which feeds the AIMD
// adaptation. Refused requests answer with a shed reply instead of
// queueing. With no limiter configured this is a direct call.
func (s *Server) dispatch(bw respWriter, req *Request) bool {
	if s.limiter == nil || !isDataOp(req.Op) {
		return s.dispatchOp(bw, req)
	}
	if reason := s.limiter.Acquire(isWriteOp(req.Op)); reason != overload.ShedNone {
		writeShedReply(bw, req, reason)
		return true
	}
	start := time.Now()
	alive := s.dispatchOp(bw, req)
	s.limiter.Release(time.Since(start))
	return alive
}

// dispatchOp executes one parsed request, writing the response. It returns
// false when the connection should close (quit). Besides the response it
// stamps req.outcome, which the connection tracer copies into the
// request's span. A get or gets arrives here only with one key:
// dispatchPending answers every other get through the merged lookup.
func (s *Server) dispatchOp(bw respWriter, req *Request) bool {
	req.outcome = OutcomeNone
	switch req.Op {
	case OpGet, OpGets:
		// The single-key hit path is zero-copy: header and value are
		// appended straight into the write buffer's available space, so the
		// value bytes move shard map → socket buffer in one copy.
		hdr := appendGetHeader
		if req.Op == OpGets {
			hdr = appendGetsHeader
		}
		out, vlen, ok := s.cfg.Store.AppendHit(bw.AvailableBuffer(), req.Keys[0], req.Digests[0], hdr)
		if ok {
			s.counters.BytesWritten.Add(int64(vlen))
			req.outcome = OutcomeHit
			bw.Write(append(out, '\r', '\n'))
		} else {
			req.outcome = OutcomeMiss
		}
		writeEnd(bw)
	case OpSet:
		s.counters.Sets.Add(1)
		s.counters.BytesRead.Add(int64(len(req.Value)))
		expireAt, expired := resolveExptime(req.Exptime, time.Now().Unix())
		if expired {
			// Memcached semantics: a store that is already expired (negative
			// exptime, or an absolute timestamp in the past) is acknowledged
			// but the value is never visible — and any previous version was
			// logically overwritten, so it is dropped too, surfacing as an
			// expire (not a delete) in the lifecycle event stream.
			s.cfg.Store.ExpireDigest(req.Keys[0], req.Digests[0])
			req.outcome = OutcomeStored
			if !req.NoReply {
				writeStored(bw)
			}
		} else {
			s.cfg.Store.SetDigest(req.Keys[0], req.Value, req.Flags, req.Digests[0], expireAt)
			req.outcome = OutcomeStored
			if !req.NoReply {
				writeStored(bw)
			}
		}
	case OpDelete:
		s.counters.Deletes.Add(1)
		found := s.cfg.Store.DeleteDigest(req.Keys[0], req.Digests[0])
		if found {
			s.counters.DeleteHits.Add(1)
			req.outcome = OutcomeDeleted
		} else {
			req.outcome = OutcomeNotFound
		}
		if !req.NoReply {
			if found {
				bw.WriteString("DELETED\r\n")
			} else {
				bw.WriteString("NOT_FOUND\r\n")
			}
		}
	case OpTouch:
		s.counters.Touches.Add(1)
		expireAt, expired := resolveExptime(req.Exptime, time.Now().Unix())
		var found bool
		if expired {
			// Touching to an already-past deadline expires the entry now,
			// mirroring set semantics for expired exptimes.
			found = s.cfg.Store.ExpireDigest(req.Keys[0], req.Digests[0])
		} else {
			found = s.cfg.Store.TouchDigest(req.Keys[0], req.Digests[0], expireAt)
		}
		if found {
			s.counters.TouchHits.Add(1)
			req.outcome = OutcomeStored
		} else {
			req.outcome = OutcomeNotFound
		}
		if !req.NoReply {
			if found {
				bw.WriteString("TOUCHED\r\n")
			} else {
				bw.WriteString("NOT_FOUND\r\n")
			}
		}
	case OpGete:
		// The expiry is read in its own store operation before the hit
		// append; a concurrent overwrite between the two can pair one
		// version's expiry with the next's value, which replication (the
		// only gete caller) tolerates — the replica self-corrects on the
		// next promotion. The store counts the lookup once: ExpireAtDigest
		// counts an absent key's miss, AppendHit a present key's hit or miss.
		req.outcome = OutcomeMiss
		if expireAt, present := s.cfg.Store.ExpireAtDigest(req.Keys[0], req.Digests[0]); present {
			out, vlen, ok := s.cfg.Store.AppendHit(bw.AvailableBuffer(), req.Keys[0], req.Digests[0], geteHeader(expireAt))
			if ok {
				s.counters.BytesWritten.Add(int64(vlen))
				req.outcome = OutcomeHit
				bw.Write(append(out, '\r', '\n'))
			}
		}
		writeEnd(bw)
	case OpStats:
		switch {
		case req.StatsArg == nil:
			s.writeStats(bw)
		case string(req.StatsArg) == "mrc":
			s.writeMRCStats(bw)
		default:
			writeClientError(bw, "unknown stats argument")
		}
	case OpNoop:
		// Fixed-size response with no key access: pipelining clients send it
		// to delimit a batch and know when everything before it has landed.
		bw.WriteString("NOOP\r\n")
	case OpVersion:
		bw.WriteString("VERSION " + Version + "\r\n")
	case OpQuit:
		return false
	}
	return true
}

// exptimeAbsThreshold is memcached's 30-day boundary: a positive exptime up
// to this value is a relative TTL in seconds; anything larger is an
// absolute unix timestamp.
const exptimeAbsThreshold = 60 * 60 * 24 * 30

// resolveExptime maps a wire exptime to an absolute expiry deadline in unix
// seconds (0 = never), per the memcached contract: 0 never expires, a
// negative value (or an absolute timestamp at/before now) is already
// expired, 1..30 days is relative to now, and larger values are absolute
// unix timestamps.
func resolveExptime(exptime, now int64) (expireAt int64, expired bool) {
	switch {
	case exptime == 0:
		return 0, false
	case exptime < 0:
		return 0, true
	case exptime <= exptimeAbsThreshold:
		return now + exptime, false
	case exptime <= now:
		return 0, true
	default:
		return exptime, false
	}
}
