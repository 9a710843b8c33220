package admit

import (
	"repro/internal/core"
	"repro/internal/policy/policyutil"
	"repro/internal/sketch"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("w-tinylfu", func(capacity int) core.Policy { return NewWTinyLFU(capacity) })
}

type wSegment uint8

const (
	segWindow wSegment = iota
	segProbation
	segProtected
)

// WTinyLFU implements Window-TinyLFU (Einziger, Friedman & Manes — the
// design behind Caffeine): a small LRU admission window (1% of capacity)
// in front of an SLRU main cache gated by a TinyLFU frequency duel.
//
// The window absorbs bursts and newly-hot objects — fixing plain TinyLFU's
// weakness under popularity decay (its sketch lags reality) — while the
// duel still blocks one-hit wonders from displacing proven objects. The
// paper (§5) places this family of admission filters among the Quick
// Demotion techniques.
type WTinyLFU struct {
	policyutil.EventEmitter
	capacity     int
	windowCap    int
	protectedCap int

	idx        *slab.Index[wSegment] // value = the list the slot is on
	window     slab.List             // front = MRU
	probation  slab.List
	protected  slab.List
	doorkeeper *sketch.Bloom
	cms        *sketch.CountMin
}

// NewWTinyLFU returns a W-TinyLFU cache with Caffeine's canonical split:
// 1% window, 99% main (of which 80% protected).
func NewWTinyLFU(capacity int) *WTinyLFU {
	windowCap := capacity / 100
	if windowCap < 1 {
		windowCap = 1
	}
	mainCap := capacity - windowCap
	if mainCap < 1 {
		mainCap = 1
		windowCap = capacity - 1
		if windowCap < 1 {
			windowCap = 0
		}
	}
	protectedCap := mainCap * 8 / 10
	return &WTinyLFU{
		capacity:     capacity,
		windowCap:    windowCap,
		protectedCap: protectedCap,
		// A miss enters the window before the window's overflow is
		// handled, so the cache briefly holds one object over capacity.
		idx:        slab.New[wSegment](capacity + 1),
		doorkeeper: sketch.NewBloom(capacity * 8),
		cms:        sketch.NewCountMin(capacity * 8),
	}
}

// Name implements core.Policy.
func (p *WTinyLFU) Name() string { return "w-tinylfu" }

// Len implements core.Policy.
func (p *WTinyLFU) Len() int {
	return p.window.Len() + p.probation.Len() + p.protected.Len()
}

// Capacity implements core.Policy.
func (p *WTinyLFU) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *WTinyLFU) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

func (p *WTinyLFU) list(seg wSegment) *slab.List {
	switch seg {
	case segWindow:
		return &p.window
	case segProbation:
		return &p.probation
	default:
		return &p.protected
	}
}

func (p *WTinyLFU) record(key uint64) {
	if p.doorkeeper.Contains(key) {
		p.cms.Add(key)
	} else {
		p.doorkeeper.Add(key)
		if p.doorkeeper.Count() >= p.capacity*8 {
			p.doorkeeper.Reset()
		}
	}
}

func (p *WTinyLFU) estimate(key uint64) uint8 {
	e := p.cms.Estimate(key)
	if p.doorkeeper.Contains(key) && e < 15 {
		e++
	}
	return e
}

// Access implements core.Policy.
func (p *WTinyLFU) Access(r *trace.Request) bool {
	p.record(r.Key)
	if s := p.idx.Find(r.Key); s != 0 {
		switch *p.idx.Value(s) {
		case segWindow:
			p.idx.MoveToFront(&p.window, s)
		case segProbation:
			// Probation hit: promote to protected.
			p.relink(s, segProtected)
			p.balanceProtected()
		case segProtected:
			p.idx.MoveToFront(&p.protected, s)
		}
		p.Hit(r.Key, r.Time)
		return true
	}
	// Miss: new objects enter the admission window.
	p.idx.PushFront(&p.window, p.idx.Insert(r.Key)) // zero value = segWindow
	p.Insert(r.Key, r.Time)
	if p.window.Len() > p.windowCap {
		p.evictWindow(r.Time)
	}
	return false
}

// relink moves s from the segment it is on to the MRU end of seg.
func (p *WTinyLFU) relink(s int32, seg wSegment) {
	at := p.idx.Value(s)
	p.idx.Unlink(p.list(*at), s)
	*at = seg
	p.idx.PushFront(p.list(seg), s)
}

// drop ends s's residency.
func (p *WTinyLFU) drop(s int32, now int64) {
	key := p.idx.Key(s)
	p.idx.Remove(p.list(*p.idx.Value(s)), s)
	p.Evict(key, now)
}

// evictWindow handles a window overflow: the window's LRU candidate duels
// the main cache's eviction victim on sketched frequency.
func (p *WTinyLFU) evictWindow(now int64) {
	cand := p.window.Back()
	mainLen := p.probation.Len() + p.protected.Len()
	if mainLen < p.capacity-p.windowCap {
		// Main has room: admit without a duel.
		p.relink(cand, segProbation)
		return
	}
	victim := p.probation.Back()
	if victim == 0 {
		victim = p.protected.Back()
	}
	if victim == 0 || p.estimate(p.idx.Key(cand)) > p.estimate(p.idx.Key(victim)) {
		// Candidate wins: evict the victim, admit the candidate.
		if victim != 0 {
			p.drop(victim, now)
		}
		p.relink(cand, segProbation)
		return
	}
	// Victim wins: the candidate is evicted (quick demotion at admission).
	p.drop(cand, now)
}

// balanceProtected demotes the protected LRU back to probation when the
// protected segment outgrows its share.
func (p *WTinyLFU) balanceProtected() {
	for p.protected.Len() > p.protectedCap {
		p.relink(p.protected.Back(), segProbation)
	}
}
