package obs

import (
	"sync/atomic"
)

// Span is one sampled request's phase timeline, recorded by the server's
// connection loop. Phases are durations, not nested intervals: Parse covers
// reading and decoding the request's bytes (excluding the idle wait for the
// first byte), Dispatch the cache operation plus response formatting, and
// Flush the batched socket write that carried this request's response (one
// flush may close out several pipelined spans, which then share the stamp).
type Span struct {
	// Seq orders spans within the buffer.
	Seq uint64
	// Start is the wall-clock UnixNano at which parsing began.
	Start int64
	// Key is the request's first key digest (0 for keyless commands).
	Key uint64
	// Op is the producer's request-op code (the server's Op values); obs
	// stores it opaquely and the producer renders the name.
	Op uint8
	// Outcome is the producer's result code (hit, miss, stored, ...).
	Outcome uint8
	// Slow marks spans recorded because they crossed the slow-request
	// threshold rather than (only) by sampling.
	Slow bool
	// ParseNs, DispatchNs, FlushNs are the phase durations in nanoseconds.
	// FlushNs is 0 when the span was evicted from the pending set before
	// its batch flushed.
	ParseNs, DispatchNs, FlushNs int64
}

// spanSlot mirrors eventSlot: all-atomic fields under a per-slot seqlock
// whose writers claim the slot first (see claim).
type spanSlot struct {
	seq      atomic.Uint64
	start    atomic.Int64
	key      atomic.Uint64
	packed   atomic.Uint64 // op<<16 | outcome<<8 | slow
	parse    atomic.Int64
	dispatch atomic.Int64
	flush    atomic.Int64
}

func packSpan(op, outcome uint8, slow bool) uint64 {
	p := uint64(op)<<16 | uint64(outcome)<<8
	if slow {
		p |= 1
	}
	return p
}

func unpackSpan(p uint64) (op, outcome uint8, slow bool) {
	return uint8(p >> 16), uint8(p >> 8), p&1 != 0
}

// SpanBuffer is a single lock-free overwrite-oldest ring of request spans.
// A nil *SpanBuffer records nothing; the disabled check is one branch.
type SpanBuffer struct {
	pos   atomic.Uint64
	slow  atomic.Int64
	_     [48]byte
	slots []spanSlot
}

// NewSpanBuffer returns a buffer retaining the most recent size spans
// (rounded up to a power of two, minimum 64).
func NewSpanBuffer(size int) *SpanBuffer {
	if size < 64 {
		size = 64
	}
	return &SpanBuffer{slots: make([]spanSlot, ceilPow2(size))}
}

// Record appends sp. Nil-safe and allocation-free.
func (b *SpanBuffer) Record(sp Span) {
	if b == nil {
		return
	}
	if sp.Slow {
		b.slow.Add(1)
	}
	n := b.pos.Add(1) - 1
	s := &b.slots[n&uint64(len(b.slots)-1)]
	if !claim(&s.seq, n) {
		return
	}
	s.start.Store(sp.Start)
	s.key.Store(sp.Key)
	s.packed.Store(packSpan(sp.Op, sp.Outcome, sp.Slow))
	s.parse.Store(sp.ParseNs)
	s.dispatch.Store(sp.DispatchNs)
	s.flush.Store(sp.FlushNs)
	s.seq.Store(n + 1)
}

// Total returns the number of spans ever recorded.
func (b *SpanBuffer) Total() int64 {
	if b == nil {
		return 0
	}
	return int64(b.pos.Load())
}

// Dropped returns how many spans were overwritten before they could be
// read. Monotonic.
func (b *SpanBuffer) Dropped() int64 {
	if b == nil {
		return 0
	}
	if pos := b.pos.Load(); pos > uint64(len(b.slots)) {
		return int64(pos - uint64(len(b.slots)))
	}
	return 0
}

// SlowCount returns how many recorded spans crossed the slow threshold.
func (b *SpanBuffer) SlowCount() int64 {
	if b == nil {
		return 0
	}
	return b.slow.Load()
}

// Snapshot returns up to max retained spans, oldest first. max <= 0 means
// all. Like Recorder.Snapshot it never blocks writers.
func (b *SpanBuffer) Snapshot(max int) []Span {
	if b == nil {
		return nil
	}
	var out []Span
	for i := range b.slots {
		s := &b.slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq == slotBusy {
			continue
		}
		sp := Span{
			Seq:        seq - 1,
			Start:      s.start.Load(),
			Key:        s.key.Load(),
			ParseNs:    s.parse.Load(),
			DispatchNs: s.dispatch.Load(),
			FlushNs:    s.flush.Load(),
		}
		sp.Op, sp.Outcome, sp.Slow = unpackSpan(s.packed.Load())
		if s.seq.Load() != seq {
			continue
		}
		out = append(out, sp)
	}
	// Order by Seq: the single ring's sequence is the record order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}
