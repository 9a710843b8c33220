// Package clock implements FIFO-Reinsertion and its k-bit generalization.
//
// FIFO-Reinsertion, 1-bit CLOCK, and Second Chance are different
// implementations of the same algorithm (paper, footnote 1): a FIFO queue
// where each object carries a reference counter; a hit sets/increments the
// counter (the only metadata write on the hit path — no locking, no pointer
// surgery), and at eviction time the oldest object is reinserted with a
// decremented counter instead of evicted while its counter is non-zero.
// This is the paper's canonical example of Lazy Promotion.
//
// The k-bit variant tracks frequency up to 2^k−1 (at k=0 nothing is ever
// reinserted and the queue is plain FIFO); the paper's 2-bit CLOCK
// tracks frequency up to three and converts the social-network workloads
// that favour LRU over FIFO-Reinsertion into wins for LP-FIFO (§3). The
// sweep itself is internal/evict's; this package is its hit path and its
// core.Policy face.
package clock

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	core.Register("fifo-reinsertion", func(capacity int) core.Policy { return New(capacity, 1) })
	core.Register("clock", func(capacity int) core.Policy { return New(capacity, 1) })
	core.Register("clock-2bit", func(capacity int) core.Policy { return New(capacity, 2) })
	core.Register("clock-3bit", func(capacity int) core.Policy { return New(capacity, 3) })
}

// Policy is a k-bit CLOCK cache. Not safe for concurrent use.
type Policy struct {
	policyutil.Adapter
	bits int
}

// New returns a CLOCK policy with the given capacity in objects and counter
// width in bits (0..6). bits=0 never reinserts and so is plain FIFO; bits=1
// is FIFO-Reinsertion; bits=2 is the paper's 2-bit CLOCK.
func New(capacity, bits int) *Policy { return build(capacity, bits, false) }

// NewBytes returns a CLOCK policy with the given capacity in bytes: an entry
// cap is a byte cap at cost 1, so the one difference from New is that an
// object is charged its Request.Size. One larger than the cache is never
// admitted. Reinsertion is unchanged by object size — a requested object
// earns a second traversal whatever its footprint, so large cold objects
// leave as fast as small ones.
func NewBytes(capacity, bits int) *Policy { return build(capacity, bits, true) }

func build(capacity, bits int, byBytes bool) *Policy {
	if bits < 0 || bits > 6 {
		panic(fmt.Sprintf("clock: bits must be in [0,6], got %d", bits))
	}
	p := &Policy{bits: bits}
	p.Init(evict.Config{Rule: evict.CLOCK, Budget: int64(capacity), Bytes: byBytes, Bits: bits, MinCost: 1}, &p.Adapter)
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	switch p.bits {
	case 0:
		return "fifo"
	case 1:
		return "fifo-reinsertion"
	}
	return fmt.Sprintf("clock-%dbit", p.bits)
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if p.AccessResident(r) {
		return true
	}
	p.Miss(r, 0)
	return false
}

// AccessResident serves r only if its key is resident and reports whether
// it was: Access without the miss path, for wrappers (Quick Demotion) that
// admit elsewhere on a miss.
func (p *Policy) AccessResident(r *trace.Request) bool {
	n := p.E.X.Find(r.Key)
	if n == 0 {
		return false
	}
	// Lazy promotion: only the counter is touched; the object's queue
	// position is unchanged until eviction time. FIFO touches nothing.
	if m := p.E.MaxFreq(); m > 0 {
		if v := p.E.X.Value(n); v.Freq < m {
			v.Freq++
		}
	}
	p.Hit(r.Key, r.Time)
	return true
}
