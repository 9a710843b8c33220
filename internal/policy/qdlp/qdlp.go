// Package qdlp implements QD-LP-FIFO, the paper's simple-yet-efficient
// eviction algorithm (§4): the Quick Demotion front end (small probationary
// FIFO + ghost FIFO) in front of a Lazy Promotion main cache (2-bit CLOCK).
//
// QD-LP-FIFO uses two FIFO queues to cache data and a ghost FIFO to track
// evicted objects. It requires at most one metadata update on a cache hit
// and no locking for any cache operation, so it is faster and more scalable
// than all the state-of-the-art algorithms — while also achieving lower
// miss ratios than LIRS and LeCaR (by 1.6% and 4.3% on average across the
// paper's 5307 traces). It is the paper's demonstration that eviction
// algorithms can be built LEGO-style: QD + LP on top of plain FIFO. All
// three queues share one index (qd.NewLPFIFO), and every decision is
// internal/evict's, as in internal/concurrent's QDLP.
package qdlp

import (
	"repro/internal/core"
	"repro/internal/policy/qd"
)

func init() {
	core.Register("qd-lp-fifo", func(capacity int) core.Policy { return New(capacity) })
}

// Options tunes QD-LP-FIFO; zero values select the paper's parameters
// (probation 10%, ghost = main size, 2-bit CLOCK main).
type Options struct {
	// ProbationFrac is the probationary FIFO's share of the cache.
	ProbationFrac float64
	// GhostFactor scales ghost entries relative to the main cache size.
	GhostFactor float64
	// ClockBits is the main CLOCK's counter width (1 = FIFO-Reinsertion,
	// 2 = the paper's choice).
	ClockBits int
}

// Policy is a QD-LP-FIFO cache. Not safe for concurrent use; see
// internal/concurrent for the thread-safe variant.
type Policy = qd.Policy

// New returns QD-LP-FIFO with the paper's parameters.
func New(capacity int) *Policy { return NewWithOptions(capacity, Options{}) }

// NewWithOptions returns QD-LP-FIFO with explicit parameters (used by the
// ablation experiments).
func NewWithOptions(capacity int, opts Options) *Policy {
	bits := opts.ClockBits
	if bits == 0 {
		bits = 2
	}
	return qd.NewLPFIFO(capacity, qd.Options{ProbationFrac: opts.ProbationFrac, GhostFactor: opts.GhostFactor}, bits)
}
