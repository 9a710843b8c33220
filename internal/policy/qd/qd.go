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
package qd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/arc"
	"repro/internal/policy/cacheus"
	"repro/internal/policy/lecar"
	"repro/internal/policy/lhd"
	"repro/internal/policy/lirs"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
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

// entry is the state of a key the wrapper itself tracks: on probation
// (data cached) or remembered in the ghost (metadata only).
type entry struct {
	accessed bool // probation: requested since insertion
	ghost    bool
	cost     uint32 // probation: what the object was charged
}

// residentAccessor is implemented by main policies that can serve a request
// only when it hits (clock, arc): a main-cache hit then costs one lookup in
// the main policy instead of Contains followed by Access.
type residentAccessor interface {
	AccessResident(r *trace.Request) bool
}

// Policy wraps a main policy with Quick Demotion. Not safe for concurrent
// use.
type Policy struct {
	policyutil.EventEmitter
	name     string
	capacity int  // in cost units: objects, or bytes under a byte cap
	byBytes  bool // an object costs its Size rather than 1
	probCap  int
	probUsed int // cost of the objects on probation
	mainCap  int
	ghostCap int // the ghost's size in keys under an entry cap; see ghostLimit

	main         core.Policy
	mainResident residentAccessor // main, when it implements the interface

	// One index holds probation and ghost keys, so a request costs one
	// probe to place among the two, and demotion to the ghost relinks the
	// entry without touching the table.
	idx   *slab.Index[entry]
	prob  slab.List // front = oldest
	ghost slab.List // front = oldest

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
	return build(capacity, false, opts, mainNew)
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
	return build(capacity, true, opts, mainNew)
}

func build(capacity int, byBytes bool, opts Options, mainNew func(mainCap int) core.Policy) *Policy {
	if opts.ProbationFrac == 0 {
		opts.ProbationFrac = 0.1
	}
	if opts.GhostFactor == 0 {
		opts.GhostFactor = 1.0
	}
	if opts.ProbationFrac < 0 || opts.ProbationFrac >= 1 {
		panic(fmt.Sprintf("qd: ProbationFrac must be in (0,1), got %v", opts.ProbationFrac))
	}
	probCap := int(float64(capacity) * opts.ProbationFrac)
	if probCap < 1 {
		probCap = 1
	}
	if probCap >= capacity {
		// Degenerate tiny cache: give everything to the main policy and
		// disable the probationary FIFO — nothing costs less than 1, so
		// every miss is too large for it.
		probCap = 0
	}
	mainCap := capacity - probCap
	ghostCap := max(int(float64(mainCap)*opts.GhostFactor), 0)
	bound := probCap + ghostCap
	if byBytes {
		bound = policyutil.Unbounded
	}
	p := &Policy{
		capacity: capacity,
		byBytes:  byBytes,
		probCap:  probCap,
		mainCap:  mainCap,
		ghostCap: ghostCap,
		main:     mainNew(mainCap),
		idx:      slab.New[entry](bound),
	}
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
func (p *Policy) Len() int { return p.prob.Len() + p.main.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Used returns the cost of the resident objects: their number, or under a
// byte cap their total size.
func (p *Policy) Used() int {
	if m, ok := p.main.(interface{ Used() int }); ok {
		return p.probUsed + m.Used()
	}
	return p.probUsed + p.main.Len()
}

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool {
	if s := p.idx.Find(key); s != 0 && !p.idx.Value(s).ghost {
		return true
	}
	return p.main.Contains(key)
}

// Main exposes the wrapped policy (for tests).
func (p *Policy) Main() core.Policy { return p.main }

// GhostLen reports the ghost queue population (for tests).
func (p *Policy) GhostLen() int { return p.ghost.Len() }

// ProbationLen reports the probationary FIFO population (for tests).
func (p *Policy) ProbationLen() int { return p.prob.Len() }

// Remove implements core.Remover when the main policy does. Probation
// entries are removed directly; main-cache entries delegate.
func (p *Policy) Remove(key uint64) bool {
	if s := p.idx.Find(key); s != 0 && !p.idx.Value(s).ghost {
		p.probUsed -= int(p.idx.Value(s).cost)
		p.idx.Remove(&p.prob, s)
		p.Evict(key, 0)
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
	// the lookups decides nothing; main comes first because most hits land
	// there, and then cost one lookup.
	if p.mainResident != nil {
		if p.mainResident.AccessResident(r) {
			return true // inner policy handles its own promotion
		}
	} else if p.main.Contains(r.Key) {
		return p.main.Access(r)
	}
	s := p.idx.Find(r.Key)
	if s != 0 {
		if e := p.idx.Value(s); !e.ghost {
			// Probation hit: lazy — only a bit flips, no movement.
			e.accessed = true
			p.Hit(r.Key, r.Time)
			return true
		}
	}
	cost := 1
	if p.byBytes {
		cost = int(r.Size)
	}
	if cost > p.probCap && cost > p.mainCap {
		return false // fits nowhere: bypass
	}
	if s != 0 {
		// Demoted too quickly last time: admit straight into the main
		// cache (a real insertion — the inner OnInsert surfaces).
		p.idx.Remove(&p.ghost, s)
		p.main.Access(r)
		return false
	}
	if cost > p.probCap {
		// Too large for probation, as everything is in a degenerate tiny
		// cache that has none: flushing probation for one object would
		// help nobody.
		p.main.Access(r)
		return false
	}
	for p.probUsed+cost > p.probCap {
		p.evictProbation(r.Time)
	}
	s = p.idx.Insert(r.Key)
	p.idx.Value(s).cost = uint32(cost)
	p.idx.PushBack(&p.prob, s)
	p.probUsed += cost
	p.Insert(r.Key, r.Time)
	return false
}

// ghostLimit is the number of keys the ghost may hold: fixed at GhostFactor ×
// the main cache's entries under an entry cap (the paper's sizing), and as
// many as the main cache holds objects right now under a byte cap, where
// bytes fix no entry count.
func (p *Policy) ghostLimit() int {
	if !p.byBytes {
		return p.ghostCap
	}
	return max(p.main.Len(), 16)
}

// evictProbation handles the probationary FIFO tail: accessed objects are
// promoted into the main cache (remaining resident throughout), untouched
// objects are evicted and remembered in the ghost, whose oldest keys are
// forgotten to make room.
func (p *Policy) evictProbation(now int64) {
	s := p.prob.Front()
	key, e := p.idx.Key(s), p.idx.Value(s)
	p.probUsed -= int(e.cost)
	if e.accessed {
		p.promo = trace.Request{Key: key, Size: e.cost, Time: now}
		p.idx.Remove(&p.prob, s)
		p.suppressInsert = true
		p.main.Access(&p.promo)
		p.suppressInsert = false
		return
	}
	if limit := p.ghostLimit(); limit == 0 {
		p.idx.Remove(&p.prob, s)
	} else {
		for p.ghost.Len() >= limit {
			p.idx.Remove(&p.ghost, p.ghost.Front())
		}
		p.idx.Unlink(&p.prob, s)
		e.ghost = true
		p.idx.PushBack(&p.ghost, s)
	}
	p.Evict(key, now)
}
