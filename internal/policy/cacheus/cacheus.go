// Package cacheus implements CACHEUS (Rodriguez et al., FAST'21), the
// adaptive successor of LeCaR and one of the five state-of-the-art
// algorithms the paper enhances with Quick Demotion.
//
// CACHEUS keeps LeCaR's regret-minimization frame but swaps the experts
// for scan-resistant and churn-resistant variants and adapts the learning
// rate online:
//
//   - SR-LRU: new objects enter a scan-resistant segment and only hits
//     promote them to the reused segment; victims come from the
//     scan-resistant tail, so scans cannot flush reused data.
//   - CR-LFU: LFU whose ties at minimum frequency break toward the MOST
//     recently used object, keeping long-lived equal-frequency objects
//     stable instead of churning them.
//
// Simplifications vs FAST'21, documented in DESIGN.md: the SR segment is a
// fixed half of the cache rather than history-adapted, and the learning
// rate adapts by deterministic hill climbing on the windowed hit rate
// rather than the paper's randomized scheme. Both preserve the qualitative
// behaviour (scan/churn resistance + adaptivity) the experiments need.
package cacheus

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
	core.Register("cacheus", func(capacity int) core.Policy { return New(capacity, 1) })
}

// Policy is a CACHEUS cache. Not safe for concurrent use.
type Policy struct {
	policyutil.EventEmitter
	capacity int
	srCap    int

	wSRLRU       float64
	learningRate float64
	lrDirection  float64 // +1 grow λ, −1 shrink λ
	discount     float64

	// Adaptive-λ bookkeeping.
	window     int
	windowHits int
	windowReqs int
	prevHR     float64

	// Every resident key sits in both experts' orders: on one of SR-LRU's
	// two lists in idx, and in CR-LFU's frequency buckets, which index the
	// same keys again.
	idx    *slab.Index[bool] // value = the slot is on rr, not sr
	sr, rr slab.List         // front = MRU
	lfu    *lfu.Buckets

	histSR  *ghost.History
	histLFU *ghost.History
	rng     *rand.Rand
}

// New returns a CACHEUS policy; seed drives expert sampling.
func New(capacity int, seed int64) *Policy {
	srCap := capacity / 2
	if srCap < 1 {
		srCap = 1
	}
	return &Policy{
		capacity:     capacity,
		srCap:        srCap,
		wSRLRU:       0.5,
		learningRate: 0.45,
		lrDirection:  1,
		discount:     math.Pow(0.005, 1/float64(capacity)),
		window:       capacity,
		idx:          slab.New[bool](capacity),
		lfu:          lfu.NewBuckets(capacity),
		histSR:       ghost.NewHistory(capacity),
		histLFU:      ghost.NewHistory(capacity),
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "cacheus" }

// Len implements core.Policy.
func (p *Policy) Len() int { return p.idx.Len() }

// Capacity implements core.Policy.
func (p *Policy) Capacity() int { return p.capacity }

// Contains implements core.Policy.
func (p *Policy) Contains(key uint64) bool { return p.idx.Find(key) != 0 }

// LearningRate exposes λ for tests and experiments.
func (p *Policy) LearningRate() float64 { return p.learningRate }

// WeightSRLRU exposes the SR-LRU expert weight for tests.
func (p *Policy) WeightSRLRU() float64 { return p.wSRLRU }

// pushR puts an unlinked slot at the MRU end of the reused segment, then
// demotes that segment's LRU back to SR while R outgrows its share, keeping
// both segments bounded.
func (p *Policy) pushR(s int32) {
	*p.idx.Value(s) = true
	p.idx.PushFront(&p.rr, s)
	rCap := max(p.capacity-p.srCap, 1)
	for p.rr.Len() > rCap {
		lru := p.rr.Back()
		p.idx.Unlink(&p.rr, lru)
		*p.idx.Value(lru) = false
		p.idx.PushFront(&p.sr, lru)
	}
}

func (p *Policy) adjustWeights(srMistake bool, sinceEvict int64) {
	regret := math.Pow(p.discount, float64(sinceEvict))
	wLFU := 1 - p.wSRLRU
	if srMistake {
		p.wSRLRU *= math.Exp(-p.learningRate * regret)
	} else {
		wLFU *= math.Exp(-p.learningRate * regret)
	}
	p.wSRLRU = p.wSRLRU / (p.wSRLRU + wLFU)
}

// adaptLearningRate hill-climbs λ on the windowed hit rate: keep moving λ
// in the same direction while the hit rate improves, reverse when it
// degrades.
func (p *Policy) adaptLearningRate() {
	hr := float64(p.windowHits) / float64(p.windowReqs)
	if hr < p.prevHR {
		p.lrDirection = -p.lrDirection
	}
	if p.lrDirection > 0 {
		p.learningRate *= 1.25
	} else {
		p.learningRate *= 0.75
	}
	if p.learningRate > 1 {
		p.learningRate = 1
	}
	if p.learningRate < 1e-3 {
		p.learningRate = 1e-3
	}
	p.prevHR = hr
	p.windowHits, p.windowReqs = 0, 0
}

// Access implements core.Policy.
func (p *Policy) Access(r *trace.Request) bool {
	p.windowReqs++
	if p.windowReqs >= p.window {
		defer p.adaptLearningRate()
	}
	if s := p.idx.Find(r.Key); s != 0 {
		p.windowHits++
		// SR-LRU view: hits promote into the reused segment.
		if *p.idx.Value(s) {
			p.idx.MoveToFront(&p.rr, s)
		} else {
			p.idx.Unlink(&p.sr, s)
			p.pushR(s)
		}
		p.lfu.Bump(r.Key)
		p.Hit(r.Key, r.Time)
		return true
	}
	freq := 1
	intoR := false
	if he, ok := p.histSR.Take(r.Key); ok {
		p.adjustWeights(true, r.Time-he.EvictAt)
		freq = he.Freq + 1
		intoR = true // proven reuse: skip the scan-resistant probation
	} else if he, ok := p.histLFU.Take(r.Key); ok {
		p.adjustWeights(false, r.Time-he.EvictAt)
		freq = he.Freq + 1
	}
	if p.idx.Len() >= p.capacity {
		p.evict(r.Time)
	}
	s := p.idx.Insert(r.Key)
	if intoR {
		p.pushR(s)
	} else {
		p.idx.PushFront(&p.sr, s)
	}
	p.lfu.Add(r.Key, freq)
	p.Insert(r.Key, r.Time)
	return false
}

// evict samples an expert by weight and removes its victim.
func (p *Policy) evict(now int64) {
	var s int32
	hist := p.histLFU
	if p.rng.Float64() < p.wSRLRU {
		// SR-LRU victim: scan-resistant tail first, reused tail if empty.
		s, hist = p.sr.Back(), p.histSR
		if s == 0 {
			s = p.rr.Back()
		}
	} else {
		// CR-LFU victim: most recently used of the minimum frequency.
		s = p.idx.Find(p.lfu.Min(true))
	}
	victim, list := p.idx.Key(s), &p.sr
	if *p.idx.Value(s) {
		list = &p.rr
	}
	p.idx.Remove(list, s)
	hist.Add(victim, p.lfu.Remove(victim), now)
	p.Evict(victim, now)
}
