// Package mglru implements a simulator-grade Multi-Generational LRU,
// modelled on the Linux MGLRU design cited in the paper's introduction
// ([5]: multi-generational LRU separates pages into generations and
// updates membership lazily).
//
// Objects live in one of G generation FIFOs (newest generation = youngest).
// A hit only records the object's target generation — one field write, no
// queue movement, which is exactly a Lazy Promotion discipline. Eviction
// scans the oldest generation: objects whose recorded target is younger
// than their current generation are moved there (the deferred promotion);
// the rest are evicted. A new generation is opened every capacity/G
// insertions, aging every older generation by one step.
package mglru

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("mglru", func(capacity int) core.Policy { return New(capacity, 4) })
}

type entry struct {
	gen int // generation the entry currently sits in
	// target is the generation the entry earned by its last access;
	// applied lazily at eviction time.
	target int
}

// Policy is an MGLRU cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	idx      *slab.Index[entry]
	// gens[0] is the oldest generation; gens[len-1] the youngest. Each
	// list front = oldest insertion within the generation.
	gens []slab.List
	// maxGen is the id of the youngest generation; gens[i] holds
	// generation maxGen-(len-1-i).
	maxGen     int
	sinceAging int
	agingEvery int
}

// New returns an MGLRU policy with the given capacity and generation count
// (Linux uses 4).
func New(capacity, generations int) *Policy {
	if generations < 2 || generations > 16 {
		panic(fmt.Sprintf("mglru: generations must be in [2,16], got %d", generations))
	}
	agingEvery := capacity / generations
	if agingEvery < 1 {
		agingEvery = 1
	}
	return &Policy{
		capacity:   capacity,
		idx:        slab.New[entry](capacity),
		gens:       make([]slab.List, generations),
		maxGen:     generations - 1,
		agingEvery: agingEvery,
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "mglru" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.idx.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// listOf returns the index in gens of the queue holding generation g, or -1
// if g has aged out.
func (p *Policy) listOf(g int) int {
	i := len(p.gens) - 1 - (p.maxGen - g)
	if i < 0 || i >= len(p.gens) {
		return -1
	}
	return i
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		// Lazy promotion: one field write, no list movement.
		p.idx.Value(s).target = p.maxGen
		p.Hit(r.Key, r.Time)
		return true
	}
	if p.idx.Len() >= p.capacity {
		p.evict(r.Time)
	}
	p.sinceAging++
	if p.sinceAging >= p.agingEvery {
		p.age()
	}
	s := p.idx.Insert(r.Key)
	*p.idx.Value(s) = entry{gen: p.maxGen, target: p.maxGen}
	p.idx.PushBack(&p.gens[len(p.gens)-1], s)
	p.Insert(r.Key, r.Time)
	return false
}

// age opens a new youngest generation. The two oldest generations merge so
// the window of tracked ages stays bounded.
func (p *Policy) age() {
	p.sinceAging = 0
	p.maxGen++
	oldest, second := &p.gens[0], &p.gens[1]
	// Merge oldest into the front of second (it is older material).
	for oldest.Len() > 0 {
		s := oldest.Back()
		p.idx.Unlink(oldest, s)
		p.idx.PushFront(second, s)
	}
	copy(p.gens, p.gens[1:])
	p.gens[len(p.gens)-1] = slab.List{} // the new youngest
}

// evict scans the oldest generation, applying deferred promotions and
// evicting the first object whose target generation is also the oldest.
func (p *Policy) evict(now int64) {
	for {
		from := 0
		for from < len(p.gens) && p.gens[from].Len() == 0 {
			from++
		}
		if from == len(p.gens) {
			return
		}
		s := p.gens[from].Front()
		// Deferred promotion: the object earned a younger generation since
		// it was queued here.
		if e := p.idx.Value(s); e.target > e.gen {
			if dest := p.listOf(e.target); dest >= 0 && dest != from {
				e.gen = e.target
				p.idx.Unlink(&p.gens[from], s)
				p.idx.PushBack(&p.gens[dest], s)
				continue
			}
		}
		key := p.idx.Key(s)
		p.idx.Remove(&p.gens[from], s)
		p.Evict(key, now)
		return
	}
}
