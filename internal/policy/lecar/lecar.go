// Package lecar implements LeCaR, the learning cache replacement policy of
// Vietri et al. (HotStorage'18).
//
// LeCaR maintains one cache but two eviction experts — LRU and LFU — and a
// weight per expert. On each eviction it samples an expert according to the
// weights and evicts that expert's victim, remembering the victim in the
// expert's ghost history. A later miss on a remembered key means the
// responsible expert made a mistake: its weight decays multiplicatively by
// exp(-λ·dᵗ), where t is the time since the eviction and d the discount
// rate (regret minimization). The paper enhances LeCaR with Quick Demotion
// (§4: QD-LeCaR reduces LeCaR's miss ratio by up to 58.8%, mean 4.5% — the
// largest improvement of the five, because LeCaR is the weakest baseline).
package lecar

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ghost"
	"repro/internal/policy/lfu"
	"repro/internal/policy/policyutil"
	"repro/internal/slab"
	"repro/internal/trace"
)

func init() {
	core.Register("lecar", func(capacity int) core.Policy { return New(capacity, 1) })
}

// DefaultLearningRate is λ from the LeCaR paper.
const DefaultLearningRate = 0.45

// Policy is a LeCaR cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity     int
	wLRU         float64 // wLFU = 1 - wLRU
	learningRate float64
	discount     float64

	// Every resident key sits in both experts' orders: on the LRU list of
	// idx, and in the frequency buckets, which index the same keys again.
	idx *slab.Index[struct{}]
	lru slab.List // front = MRU
	lfu *lfu.Buckets

	histLRU *ghost.History
	histLFU *ghost.History
	rng     *rand.Rand
}

// New returns a LeCaR policy. The seed drives the expert-sampling
// randomness; the same seed always reproduces the same decisions.
func New(capacity int, seed int64) *Policy {
	return &Policy{
		capacity:     capacity,
		wLRU:         0.5,
		learningRate: DefaultLearningRate,
		discount:     math.Pow(0.005, 1/float64(capacity)),
		idx:          slab.New[struct{}](capacity),
		lfu:          lfu.NewBuckets(capacity),
		histLRU:      ghost.NewHistory(capacity),
		histLFU:      ghost.NewHistory(capacity),
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "lecar" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.idx.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// WeightLRU returns the current LRU expert weight (for tests and the
// experiment harness).
func (p *Policy) WeightLRU() float64 { return p.wLRU }

// adjust applies the regret update: the expert whose past eviction caused
// this miss decays by exp(-λ·dᵗ).
func (p *Policy) adjust(lruMistake bool, sinceEvict int64) {
	regret := math.Pow(p.discount, float64(sinceEvict))
	wLFU := 1 - p.wLRU
	if lruMistake {
		p.wLRU *= math.Exp(-p.learningRate * regret)
	} else {
		wLFU *= math.Exp(-p.learningRate * regret)
	}
	p.wLRU = p.wLRU / (p.wLRU + wLFU)
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	if s := p.idx.Find(r.Key); s != 0 {
		p.idx.MoveToFront(&p.lru, s)
		p.lfu.Bump(r.Key)
		p.Hit(r.Key, r.Time)
		return true
	}
	freq := 1
	if he, ok := p.histLRU.Take(r.Key); ok {
		p.adjust(true, r.Time-he.EvictAt)
		freq = he.Freq + 1
	} else if he, ok := p.histLFU.Take(r.Key); ok {
		p.adjust(false, r.Time-he.EvictAt)
		freq = he.Freq + 1
	}
	if p.idx.Len() >= p.capacity {
		p.evict(r.Time)
	}
	p.idx.PushFront(&p.lru, p.idx.Insert(r.Key))
	p.lfu.Add(r.Key, freq)
	p.Insert(r.Key, r.Time)
	return false
}

// evict samples an expert by weight and removes its victim, recording it in
// that expert's history.
func (p *Policy) evict(now int64) {
	s, hist := p.lru.Back(), p.histLRU
	if p.rng.Float64() >= p.wLRU {
		s, hist = p.idx.Find(p.lfu.Min(false)), p.histLFU
	}
	victim := p.idx.Key(s)
	p.idx.Remove(&p.lru, s)
	hist.Add(victim, p.lfu.Remove(victim), now)
	p.Evict(victim, now)
}
