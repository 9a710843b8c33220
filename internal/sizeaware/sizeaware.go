// Package sizeaware replays sized traces against byte-capacity eviction
// policies — the paper's stated future work ("designing size-aware Lazy
// Promotion and Quick Demotion techniques are worth pursuing in the future",
// §5).
//
// Unlike the rest of the simulator, where the paper's uniform-size
// assumption makes capacities object counts, these policies respect
// Request.Size and are evaluated on both object miss ratio and byte miss
// ratio. What is this package's own is the Policy/Result/Run harness, GDSF
// (the classic size-aware web policy, as a baseline) and New, which names
// the rest. The queue algorithms are not reimplemented here: size-aware
// FIFO and k-bit CLOCK (size-aware Lazy Promotion) are internal/policy/clock,
// size-aware LRU is internal/policy/lru, and size-aware QD-LP-FIFO is
// internal/policy/qd in front of a 2-bit clock, each built with its NewBytes
// constructor — an entry cap is a byte cap at cost 1, so the byte-capacity
// policy is the same code charging a miss its size.
package sizeaware

import "repro/internal/trace"

// Policy is a byte-capacity eviction policy. Implementations are not safe
// for concurrent use.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Access processes one request (using r.Size) and reports a hit.
	// Objects larger than the capacity are never admitted.
	Access(r *trace.Request) bool
	// Contains reports data residency.
	Contains(key uint64) bool
	// Len returns the number of resident objects.
	Len() int
	// UsedBytes returns the bytes currently occupied.
	UsedBytes() int64
	// CapacityBytes returns the byte capacity.
	CapacityBytes() int64
}

// Result summarizes a size-aware replay: both object and byte miss ratios
// (web caches care about the latter for bandwidth).
type Result struct {
	Policy     string
	Requests   int64
	Hits       int64
	Bytes      int64
	ByteHits   int64
	FinalBytes int64
	FinalObjs  int
}

// MissRatio returns the object miss ratio.
func (r Result) MissRatio() float64 {
	if r.Requests == 0 {
		return 1
	}
	return float64(r.Requests-r.Hits) / float64(r.Requests)
}

// ByteMissRatio returns the byte miss ratio.
func (r Result) ByteMissRatio() float64 {
	if r.Bytes == 0 {
		return 1
	}
	return float64(r.Bytes-r.ByteHits) / float64(r.Bytes)
}

// Run replays tr against p.
func Run(p Policy, tr *trace.Trace) Result {
	res := Result{Policy: p.Name(), Requests: int64(len(tr.Requests))}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		r.Time = int64(i)
		res.Bytes += int64(r.Size)
		if p.Access(r) {
			res.Hits++
			res.ByteHits += int64(r.Size)
		}
	}
	res.FinalBytes = p.UsedBytes()
	res.FinalObjs = p.Len()
	return res
}
