package obs

import "sync/atomic"

// SampleHash is the canonical spatial-sampling hash (a murmur3 finalizer)
// shared by the offline SHARDS curve builder in internal/mrc and the live
// sampler below. Sampling decisions must agree everywhere — a key is either
// in the sample set or it is not, across processes and across restarts — so
// every consumer calls this one function.
func SampleHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// sampleSlot is one staging-ring slot: a key digest published under a
// per-slot sequence word, the same seqlock protocol eventSlot uses.
type sampleSlot struct {
	seq atomic.Uint64
	key atomic.Uint64
}

// sampleRing is one lock-free staging ring. Writers (request goroutines)
// claim slots with an atomic add and publish with the seqlock; the single
// consumer (the mrc.Online drain loop) tracks its own cursor and counts
// slots it lost to overwrite as drops.
type sampleRing struct {
	pos   atomic.Uint64
	_     [56]byte // keep hot write cursors off each other's cache lines
	slots []sampleSlot

	// Consumer-side state. next is only touched by the drain goroutine;
	// dropped is atomic because metrics scrapes read it concurrently.
	next    uint64
	dropped atomic.Int64
}

func (r *sampleRing) offer(id uint64) {
	n := r.pos.Add(1) - 1
	s := &r.slots[n&uint64(len(r.slots)-1)]
	s.seq.Store(0) // mark in-progress; the consumer skips torn slots
	s.key.Store(id)
	s.seq.Store(n + 1) // publish
}

// KeySampler stages spatially-hash-sampled key digests from the serving hot
// path for a background consumer. Offer is the producer side: one hash, one
// compare, and for the sampled fraction one atomic add plus three plain
// atomic stores — no locks, no allocations, so the served hit path stays
// 0 allocs/op with sampling enabled. A nil *KeySampler offers nothing, the
// same nil-receiver discipline as *Recorder.
//
// Rings are selected by a second, independent mix of the digest, so one key
// always lands in one ring: per-key arrival order is preserved, which is
// what a replay through miniature caches needs. Ordering *across* keys is only
// preserved within a ring; the estimator tolerates cross-key reorder
// bounded by one drain interval.
type KeySampler struct {
	threshold uint64
	rate      float64
	mask      uint64
	rings     []sampleRing
}

// NewKeySampler returns a sampler admitting keys whose SampleHash falls
// under rate (clamped to (0, 1]), staged across rings ring buffers of
// perRing slots each (rounded up to powers of two; minimums 1 and 64).
func NewKeySampler(rate float64, rings, perRing int) *KeySampler {
	if rate <= 0 {
		rate = 1.0 / (1 << 32)
	}
	if rate > 1 {
		rate = 1
	}
	if rings < 1 {
		rings = 1
	}
	if perRing < 64 {
		perRing = 64
	}
	rings = ceilPow2(rings)
	perRing = ceilPow2(perRing)
	s := &KeySampler{
		threshold: uint64(rate * (1 << 32)),
		rate:      rate,
		mask:      uint64(rings - 1),
		rings:     make([]sampleRing, rings),
	}
	for i := range s.rings {
		s.rings[i].slots = make([]sampleSlot, perRing)
	}
	return s
}

// Rate returns the configured sampling rate.
func (s *KeySampler) Rate() float64 {
	if s == nil {
		return 0
	}
	return s.rate
}

// Offer stages the key digest if it falls in the sample set. Unsampled keys
// cost one hash and one compare; offering on a nil sampler is a no-op.
func (s *KeySampler) Offer(id uint64) {
	if s == nil {
		return
	}
	if SampleHash(id)&0xffffffff >= s.threshold {
		return
	}
	s.rings[mix(id)&s.mask].offer(id)
}

// Offered returns the number of keys ever staged (sampled offers, including
// any later overwritten before a drain).
func (s *KeySampler) Offered() int64 {
	if s == nil {
		return 0
	}
	var total int64
	for i := range s.rings {
		total += int64(s.rings[i].pos.Load())
	}
	return total
}

// Dropped returns how many staged keys were overwritten (or torn) before
// the consumer drained them. It is monotonic.
func (s *KeySampler) Dropped() int64 {
	if s == nil {
		return 0
	}
	var dropped int64
	for i := range s.rings {
		dropped += s.rings[i].dropped.Load()
	}
	return dropped
}

// Drain appends every stable staged key to buf and returns it, advancing
// the consumer cursor. Drain is single-consumer: exactly one goroutine may
// call it. Writers are never blocked; slots overwritten since the last
// drain (the consumer was lapped) are counted as dropped, as are slots torn
// by an in-flight writer.
func (s *KeySampler) Drain(buf []uint64) []uint64 {
	if s == nil {
		return buf
	}
	for i := range s.rings {
		r := &s.rings[i]
		pos := r.pos.Load()
		start := r.next
		if n := uint64(len(r.slots)); pos-start > n {
			r.dropped.Add(int64(pos - start - n))
			start = pos - n
		}
		for seq := start; seq < pos; seq++ {
			slot := &r.slots[seq&uint64(len(r.slots)-1)]
			got := slot.seq.Load()
			if got != seq+1 {
				// Torn (0) or already relapped: the staged key is gone.
				r.dropped.Add(1)
				continue
			}
			key := slot.key.Load()
			if slot.seq.Load() != seq+1 {
				r.dropped.Add(1)
				continue
			}
			buf = append(buf, key)
		}
		r.next = pos
	}
	return buf
}
