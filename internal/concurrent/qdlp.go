package concurrent

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// QDLP is a sharded thread-safe QD-LP-FIFO cache: a probationary FIFO
// holding a configurable fraction of each shard's budget, a CLOCK main
// region holding the rest, and a metadata-only ghost. Hits perform at most
// one atomic counter store under a shared lock — "at most one metadata
// update on a cache hit and no locking for any cache operation" (§4) —
// while misses take the exclusive lock.
//
// A byte cap adds one policy decision an entry cap cannot express:
// size-aware admission. A first-touch object costing more than AdmitFrac
// of the probation budget is never admitted — it goes straight to the
// ghost (quick demotion applied to bytes), so one giant one-hit object
// cannot flush many small hot ones; a second touch while ghosted earns it
// a main-region slot like any other quick-demotion mistake.
type QDLP struct {
	base
	shards   []qdShard
	maxFreq  uint32
	ghostFac float64
}

type qdShard struct {
	mu    sync.RWMutex
	byKey map[uint64]*node

	small    region // probationary FIFO
	admitMax int64  // size-aware admission threshold (AdmitFrac × small.max)
	main     region // CLOCK: front = newest / reinserted

	ghost     map[uint64]struct{}
	ghostQ    []uint64 // FIFO with tombstones; ghostHead indexes the oldest
	ghostHead int
	ghostMin  int // floor of the ghost's bound, see ghostAdd

	stats opStats
	_     [24]byte
}

// QDLPOptions tunes the thread-safe QD-LP-FIFO. Zero values select the
// paper's parameters, mirroring the single-threaded qdlp.Options.
type QDLPOptions struct {
	// ProbationFrac is the probationary FIFO's share of each shard,
	// in (0, 1). 0 selects the paper's 10%.
	ProbationFrac float64
	// GhostFactor scales ghost entries relative to the main region's
	// object count. 0 selects the paper's 1.0 (the ghost remembers one
	// main region's worth).
	GhostFactor float64
	// ClockBits is the main region's counter width in bits, 1–6
	// (1 = FIFO-Reinsertion). 0 selects the paper's 2.
	ClockBits int
	// AdmitFrac is the size-aware admission threshold for byte-capped
	// caches (WithMaxBytes), as a fraction of the probation byte budget
	// in (0, 1]: a first-touch object costing more than
	// AdmitFrac × probation-bytes goes straight to the ghost instead of
	// flushing probation. 0 selects 0.5. Entry-capped caches have no
	// byte budget to take a fraction of and reject a nonzero value.
	AdmitFrac float64
}

// newQDLP builds the cache with the paper's sizing unless the options say
// otherwise: probation gets 10% of each shard, the CLOCK main region the
// rest, and the ghost remembers as many keys as the main region holds
// objects. Each shard needs room for both regions.
func newQDLP(cfg config) (Cache, error) {
	if err := rejectOptions("qdlp", cfg, true, true); err != nil {
		return nil, err
	}
	opts := cfg.qdlp
	frac := opts.ProbationFrac
	if frac == 0 {
		frac = 0.1
	}
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("concurrent: qdlp probation fraction %v outside (0, 1)", frac)
	}
	ghostFactor := opts.GhostFactor
	if ghostFactor == 0 {
		ghostFactor = 1
	}
	if ghostFactor < 0 {
		return nil, fmt.Errorf("concurrent: qdlp ghost factor %v is negative", ghostFactor)
	}
	bits := opts.ClockBits
	if bits == 0 {
		bits = 2
	}
	if bits < 1 || bits > 6 {
		return nil, fmt.Errorf("concurrent: qdlp clock bits %d outside [1, 6]", bits)
	}
	admitFrac := opts.AdmitFrac
	switch {
	case !cfg.byBytes && admitFrac != 0:
		return nil, fmt.Errorf("concurrent: qdlp admit fraction applies only to byte-capped caches (WithMaxBytes)")
	case !cfg.byBytes:
		// Every object costs one unit, so no object is "large": a fraction
		// of a small probation budget would round to zero and ghost every
		// first touch. The threshold sits at the whole probation budget,
		// which no unit-cost object exceeds.
		admitFrac = 1
	case admitFrac == 0:
		admitFrac = 0.5
	}
	if admitFrac < 0 || admitFrac > 1 {
		return nil, fmt.Errorf("concurrent: qdlp admit fraction %v outside (0, 1]", admitFrac)
	}
	b, per, err := newBase("concurrent-qdlp", cfg, 2*cfg.minRegion)
	if err != nil {
		return nil, err
	}
	c := &QDLP{base: b, shards: make([]qdShard, len(per)), maxFreq: uint32(1<<bits - 1), ghostFac: ghostFactor}
	for i := range c.shards {
		s := &c.shards[i]
		s.small.max = min(max(int64(float64(per[i])*frac), cfg.minRegion), per[i]-cfg.minRegion)
		s.main.max = per[i] - s.small.max
		s.admitMax = int64(float64(s.small.max) * admitFrac)
		s.ghostMin = 16
		if !cfg.byBytes {
			// main.max is the object count the region holds, so the ghost
			// is the paper's fixed size from the first request.
			s.ghostMin = int(ghostFactor * float64(s.main.max))
		}
		s.byKey = make(map[uint64]*node)
		s.ghost = make(map[uint64]struct{})
	}
	return c, nil
}

func (c *QDLP) shard(key uint64) *qdShard {
	return &c.shards[hash(key)&c.mask]
}

// Get implements Cache: shared lock, one atomic store, no queue movement.
func (c *QDLP) Get(key uint64) (uint64, bool) {
	s := c.shard(key)
	s.mu.RLock()
	n, ok := s.byKey[key]
	if !ok {
		s.mu.RUnlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	v := n.Value.value
	touch(n, c.maxFreq)
	s.mu.RUnlock()
	s.stats.hits.Add(1)
	return v, true
}

// Set implements Cache.
func (c *QDLP) Set(key, value uint64) {
	cost := c.cost(value)
	s := c.shard(key)
	s.stats.sets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.byKey[key]; ok {
		s.overwrite(c, n, value)
		return
	}
	if _, ok := s.ghost[key]; ok {
		// Quick-demotion mistake: admit straight into the main region.
		delete(s.ghost, key)
		c.rec.Record(obs.Event{Key: key, Kind: obs.EvGhostReadmit})
		if cost > s.main.max {
			// Fits nowhere; the hook still fires because the KV adapter
			// has already stored the bytes.
			c.evicted(&s.stats, key, obs.EvEvict, obs.ReasonSizeAdmission)
			return
		}
		for s.main.used+cost > s.main.max {
			s.evictMainOne(c)
		}
		s.insert(&s.main, key, value, cost).Value.inMain = true
		return
	}
	// First touch. Size-aware admission: an object too large for its
	// probation share is demoted to the ghost without ever holding bytes.
	if cost > s.admitMax {
		s.ghostAdd(c, key)
		c.evicted(&s.stats, key, obs.EvDemoteGhost, obs.ReasonSizeAdmission)
		return
	}
	for s.small.used+cost > s.small.max {
		s.evictSmallOne(c)
	}
	s.insert(&s.small, key, value, cost)
	c.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
}

// insert links a new object at the front of r. The caller has made room.
func (s *qdShard) insert(r *region, key, value uint64, cost int64) *node {
	n := &node{}
	n.Value.key, n.Value.value = key, value
	s.byKey[key] = n
	r.push(n, cost)
	s.stats.usedBytes.Add(int64(value))
	return n
}

// region returns the queue holding n.
func (s *qdShard) region(n *node) *region {
	if n.Value.inMain {
		return &s.main
	}
	return &s.small
}

// overwrite updates a resident object's value in place and rebalances its
// region. A cost that no longer fits the region at all drops the object
// (hook fired so the data plane reclaims it).
func (s *qdShard) overwrite(c *QDLP, n *node, value uint64) {
	r := s.region(n)
	cost := c.cost(value)
	if cost > r.max {
		s.drop(c, n, obs.ReasonSizeAdmission)
		return
	}
	r.used += cost - c.cost(n.Value.value)
	s.stats.usedBytes.Add(int64(value) - int64(n.Value.value))
	n.Value.value = value
	touch(n, c.maxFreq)
	for s.main.used > s.main.max {
		s.evictMainOne(c)
	}
	for s.small.used > s.small.max {
		s.evictSmallOne(c)
	}
}

// evictSmallOne pops the probationary FIFO tail: referenced objects are
// lazily promoted into the main region (which may evict there to make
// room), untouched objects fall to the ghost — the quick demotion that
// IS the eviction. Caller holds the exclusive lock and guarantees the
// probation list is non-empty.
func (s *qdShard) evictSmallOne(c *QDLP) {
	victim := s.small.list.Back()
	key, cost := victim.Value.key, c.cost(victim.Value.value)
	f := victim.Value.freq.Load()
	if f == 0 {
		// Quick demotion: never re-requested — this is the eviction.
		s.remove(c, victim)
		s.ghostAdd(c, key)
		c.evicted(&s.stats, key, obs.EvDemoteGhost, obs.ReasonProbationOverflow)
		return
	}
	// Lazy promotion: the object earned the main region while waiting.
	c.rec.Record(obs.Event{Key: key, Kind: obs.EvPromote, Freq: uint8(f)})
	if cost > s.main.max {
		// Too large for main even so: drop it, bytes and all.
		s.drop(c, victim, obs.ReasonSizeAdmission)
		return
	}
	s.small.unlink(victim, cost)
	for s.main.used+cost > s.main.max {
		s.evictMainOne(c)
	}
	victim.Value.inMain = true
	victim.Value.freq.Store(0)
	s.main.push(victim, cost)
}

// evictMainOne runs the CLOCK sweep on the main region's tail. Caller
// holds the exclusive lock and guarantees the main list is non-empty.
func (s *qdShard) evictMainOne(c *QDLP) {
	sweep(&s.main.list, c.rec)
	s.drop(c, s.main.list.Back(), obs.ReasonMainClock)
}

// remove unlinks and un-accounts a resident object.
func (s *qdShard) remove(c *QDLP, n *node) {
	delete(s.byKey, n.Value.key)
	s.region(n).unlink(n, c.cost(n.Value.value))
	s.stats.usedBytes.Add(-int64(n.Value.value))
}

// drop evicts a resident object, firing the hook.
func (s *qdShard) drop(c *QDLP, n *node, reason obs.Reason) {
	s.remove(c, n)
	c.evicted(&s.stats, n.Value.key, obs.EvEvict, reason)
}

// ghostAdd remembers a demoted key. The ghost holds GhostFactor × as many
// keys as the main region holds objects. Under a byte cap that count is
// not known up front, so the bound follows the region's current
// population (at least 16); under an entry cap ghostMin is already the
// full region's worth.
func (s *qdShard) ghostAdd(c *QDLP, key uint64) {
	if _, ok := s.ghost[key]; ok {
		return
	}
	limit := max(int(c.ghostFac*float64(s.main.list.Len())), s.ghostMin)
	if limit == 0 {
		return // GhostFactor rounded the ghost away
	}
	for len(s.ghost) >= limit {
		s.ghostPop()
	}
	s.ghost[key] = struct{}{}
	s.ghostQ = append(s.ghostQ, key)
}

// ghostPop forgets the oldest remembered key, skipping tombstones left
// by readmissions, and compacts the queue when the dead prefix dominates.
func (s *qdShard) ghostPop() {
	for s.ghostHead < len(s.ghostQ) {
		k := s.ghostQ[s.ghostHead]
		s.ghostHead++
		if _, ok := s.ghost[k]; ok {
			delete(s.ghost, k)
			break
		}
	}
	if s.ghostHead > 64 && s.ghostHead*2 > len(s.ghostQ) {
		s.ghostQ = append(s.ghostQ[:0], s.ghostQ[s.ghostHead:]...)
		s.ghostHead = 0
	}
}

// Delete implements Cache.
func (c *QDLP) Delete(key uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byKey[key]
	if ok {
		s.remove(c, n)
		s.stats.deletes.Add(1)
	}
	return ok
}

// Len implements Cache.
func (c *QDLP) Len() int { return c.Stats().Len }

// Stats implements Cache.
func (c *QDLP) Stats() Snapshot { return sumSnapshots(c.ShardStats()) }

// ShardStats implements Cache.
func (c *QDLP) ShardStats() []Snapshot {
	out := make([]Snapshot, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n := s.small.list.Len() + s.main.list.Len()
		s.mu.RUnlock()
		out[i] = c.snapshot(&s.stats, n, s.small.max+s.main.max)
	}
	return out
}
