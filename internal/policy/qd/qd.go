// Package qd implements the paper's Quick Demotion technique (§4, Figure
// 4): a small probationary FIFO queue plus a metadata-only ghost FIFO
// placed in front of an arbitrary main eviction algorithm.
//
// The probationary FIFO uses 10% of the cache space and acts as a filter
// for unpopular objects: objects not requested after insertion are evicted
// from it quickly and only remembered in the ghost. The main cache runs the
// wrapped state-of-the-art algorithm with the remaining 90%, and the ghost
// FIFO holds as many entries as the main cache. On a miss the object enters
// the probationary FIFO — unless it is remembered in the ghost, in which
// case it goes straight into the main cache. When the probationary FIFO is
// full, its oldest object is promoted into the main cache if it was
// accessed since insertion, and otherwise evicted and recorded in the
// ghost.
//
// Wrapping ARC, LIRS, CACHEUS, LeCaR, and LHD this way is exactly the
// paper's QD-X construction; §4 reports it reduces the state-of-the-art
// miss ratios by 2.7% on average over 5307 traces, with maxima near 60%.
// Probation, the ghost and their decisions are internal/evict's; in front
// of CLOCK (QD-LP-FIFO, see NewLPFIFO) the main region lives in the same
// index too.
package qd

import (
	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/policy/arc"
	"repro/internal/policy/cacheus"
	"repro/internal/policy/lecar"
	"repro/internal/policy/lhd"
	"repro/internal/policy/lirs"
	"repro/internal/policy/policyutil"
	"repro/internal/trace"
)

func init() {
	inners := map[string]func(mainCap int) core.Policy{
		"arc":     func(c int) core.Policy { return arc.New(c) },
		"lirs":    func(c int) core.Policy { return lirs.New(c) },
		"lecar":   func(c int) core.Policy { return lecar.New(c, 1) },
		"cacheus": func(c int) core.Policy { return cacheus.New(c, 1) },
		"lhd":     func(c int) core.Policy { return lhd.New(c, 1) },
	}
	for name, mainNew := range inners {
		mainNew := mainNew
		core.Register("qd-"+name, func(capacity int) core.Policy {
			return New(capacity, Options{}, mainNew)
		})
	}
}

// Options tunes the QD wrapper; zero values select the paper's parameters.
type Options struct {
	// ProbationFrac is the fraction of capacity given to the probationary
	// FIFO. Default 0.1 (the paper's 10%; §5 contrasts this with 2Q's 25%
	// and ARC's adaptive sizing).
	ProbationFrac float64
	// GhostFactor scales the ghost queue entry count relative to the main
	// cache size. Default 1.0 ("the ghost FIFO stores as many entries as
	// the main cache").
	GhostFactor float64
}

var _ evict.Outer = (*Policy)(nil)

// residentAccessor is implemented by main policies that can serve a request
// only when it hits (clock, arc): a main-cache hit then costs one lookup in
// the main policy instead of Contains followed by Access.
type residentAccessor interface {
	AccessResident(r *trace.Request) bool
}

// Policy wraps a main policy with Quick Demotion. Not safe for concurrent
// use.
type Policy struct {
	// Adapter's engine holds probation and ghost keys in one index, so a
	// request costs one probe to place among the two, and demotion to the
	// ghost relinks the entry without touching the table. Under QD-LP-FIFO
	// it holds the CLOCK main region too.
	policyutil.Adapter
	name         string
	main         core.Policy      // nil under QD-LP-FIFO
	mainResident residentAccessor // main, when it implements the interface

	req *trace.Request // the request being served
	// promo is the request a promotion presents to the main policy; a
	// field, because a local handed to an interface method would escape to
	// the heap on every promotion.
	promo trace.Request
	// suppressInsert is set while promoting a probation object into the
	// main cache: the object never left the cache, so the inner policy's
	// OnInsert must not surface.
	suppressInsert bool
}

// New builds a QD wrapper around the main policy produced by mainNew, which
// receives the main cache's capacity (total minus probation). Capacities are
// in objects.
func New(capacity int, opts Options, mainNew func(mainCap int) core.Policy) *Policy {
	return build(capacity, false, opts, mainNew, 1)
}

// NewBytes is New with capacities in bytes: an object is charged its
// Request.Size in the probationary FIFO, mainNew must return a policy that
// charges it the same way (clock.NewBytes, lru.NewBytes), and the ghost,
// for which bytes fix no number of entries, holds as many keys as the main
// cache holds objects at the time (GhostFactor does not apply). An object
// too large for the probationary FIFO goes straight to the main cache rather
// than flushing the whole of probation; one too large for either is never
// admitted.
//
// Size-aware Quick Demotion inherits a pleasant property: a large
// unrequested object occupies the probationary queue for fewer insertions
// than a small one (it is a larger share of the queue), so the filter is
// naturally harsher on big one-hit wonders — the objects that waste the
// most bytes.
func NewBytes(capacity int, opts Options, mainNew func(mainCap int) core.Policy) *Policy {
	return build(capacity, true, opts, mainNew, 1)
}

// NewLPFIFO returns QD-LP-FIFO: Quick Demotion in front of a bits-bit
// CLOCK main region that shares probation's index, so that a request costs
// one probe wherever its key is. It decides exactly as New over clock.New.
func NewLPFIFO(capacity int, opts Options, bits int) *Policy {
	return build(capacity, false, opts, nil, bits)
}

func build(capacity int, byBytes bool, opts Options, mainNew func(mainCap int) core.Policy, bits int) *Policy {
	if opts.ProbationFrac == 0 {
		opts.ProbationFrac = 0.1
	}
	if opts.GhostFactor == 0 {
		opts.GhostFactor = 1.0
	}
	p := &Policy{name: "qd-lp-fifo"}
	// MinRegion 1: in a degenerate tiny cache probation gets nothing and
	// every first touch, too large for it, goes to the main region.
	cfg := evict.Config{
		Rule: evict.QDLP, Budget: int64(capacity), Bytes: byBytes, Bits: bits, MinCost: 1,
		ProbationFrac: opts.ProbationFrac, GhostFactor: opts.GhostFactor, MinRegion: 1,
	}
	if mainNew == nil {
		p.Init(cfg, &p.Adapter)
		return p
	}
	p.Init(cfg, p) // p is an evict.Outer: the main cache is mainNew's
	p.main = mainNew(int(p.E.Main.Max))
	p.name = "qd-" + p.main.Name()
	p.mainResident, _ = p.main.(residentAccessor)
	if sink, ok := p.main.(core.EventSink); ok {
		sink.SetEvents(&core.Events{
			OnInsert: func(key uint64, now int64) {
				if !p.suppressInsert {
					p.Insert(key, now)
				}
			},
			OnEvict: func(key uint64, now int64) { p.Evict(key, now) },
			OnHit:   func(key uint64, now int64) { p.Hit(key, now) },
		})
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return p.name }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.E.Len() + p.MainLen() }

// MainLen implements evict.Outer: the outer main policy's population.
func (p *Policy) MainLen() int {
	if p.main == nil {
		return 0
	}
	return p.main.Len()
}

// Used returns the cost of the resident objects: their number, or under a
// byte cap their total size.
func (p *Policy) Used() int {
	used := p.Adapter.Used()
	if m, ok := p.main.(interface{ Used() int }); ok {
		return used + m.Used()
	}
	return used + p.MainLen()
}

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	return p.Adapter.Contains(key) || p.main != nil && p.main.Contains(key)
}

// Remove implements core.Remover when the main policy does. Probation
// entries are removed directly; main-cache entries delegate.
func (p *Policy) Remove(key uint64) bool {
	if p.Adapter.Remove(key) {
		return true
	}
	if rm, ok := p.main.(core.Remover); ok {
		return rm.Remove(key)
	}
	return false
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	// The main cache, probation and the ghost are disjoint, so the order of
	// the lookups decides nothing; an outer main comes first because most
	// hits land there, and then cost one lookup.
	if p.mainResident != nil {
		if p.mainResident.AccessResident(r) {
			return true // inner policy handles its own promotion
		}
	} else if p.main != nil && p.main.Contains(r.Key) {
		return p.main.Access(r)
	}
	n := p.E.X.Find(r.Key)
	if n != 0 {
		if v := p.E.X.Value(n); v.Where != evict.InGhost {
			// Lazy: only a counter moves. On probation it records that
			// the object was requested since insertion.
			if v.Freq < p.E.MaxFreq() {
				v.Freq++
			}
			p.Hit(r.Key, r.Time)
			return true
		}
	}
	p.req = r
	p.Miss(r, n)
	return false
}

// AdmitMain implements evict.Outer: a promotion is presented to the main
// policy as a request that must not surface as an insertion; a ghost
// readmission or an object too large for probation is the request itself.
func (p *Policy) AdmitMain(key, size uint64, promoted bool) {
	if !promoted {
		p.main.Access(p.req)
		return
	}
	p.promo = trace.Request{Key: key, Size: uint32(size), Time: p.Now}
	p.suppressInsert = true
	p.main.Access(&p.promo)
	p.suppressInsert = false
}
