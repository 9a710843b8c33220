package concurrent

import (
	"fmt"

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
	base     // small = probation, main = CLOCK (front = newest / reinserted)
	ghostFac float64
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
	b, err := newBase("concurrent-qdlp", cfg, 2*cfg.minRegion, uint32(1<<bits-1))
	if err != nil {
		return nil, err
	}
	c := &QDLP{base: b, ghostFac: ghostFactor}
	for i := range c.shards {
		s := &c.shards[i]
		per := s.main.max
		s.small.max = min(max(int64(float64(per)*frac), cfg.minRegion), per-cfg.minRegion)
		s.main.max = per - s.small.max
		s.admitMax = int64(float64(s.small.max) * admitFrac)
		// The ghost holds GhostFactor × as many keys as the main region
		// holds objects. Under an entry cap main.max is that count, so the
		// ghost is the paper's fixed size from the first request; under a
		// byte cap the bound follows the region's population (see ghostRoom),
		// which no KV's objects push past main.max/(EntryOverhead+1).
		s.ghostMin = int(ghostFactor * float64(s.main.max))
		ghost := s.ghostMin
		if cfg.byBytes {
			s.ghostMin = 16
			ghost = max(ghost/(EntryOverhead+1), s.ghostMin)
		}
		s.index(&c.base, per, ghost)
	}
	return c, nil
}

// Set implements Cache.
func (c *QDLP) Set(key, value uint64) { c.set(key, value, entry{}) }

func (c *QDLP) set(key, value uint64, e entry) {
	cost := c.cost(value)
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.sets++
	n := s.idx.Find(key)
	if n == 0 {
		c.admit(s, key, value, cost, e)
		return
	}
	v := s.idx.Value(n)
	if v.where != inGhost {
		c.overwrite(s, n, v, value, e)
		return
	}
	// Quick-demotion mistake: admit straight into the main region, in the
	// slot that remembered the key.
	c.rec.Record(obs.Event{Key: key, Kind: obs.EvGhostReadmit})
	if cost > s.main.max {
		s.idx.Remove(&s.ghost, n) // fits nowhere
		e.free()
		c.evicted(s, key, obs.EvEvict, obs.ReasonSizeAdmission)
		return
	}
	s.idx.Unlink(&s.ghost, n)
	for s.main.used+cost > s.main.max {
		evictClock(s, &c.base)
	}
	s.place(n, inMain, value, cost, e)
}

// admit handles the first touch of a key the shard does not remember.
// Size-aware admission: an object too large for its probation share is
// demoted to the ghost without ever holding bytes.
func (c *QDLP) admit(s *shard, key, value uint64, cost int64, e entry) {
	if cost > s.admitMax {
		e.free()
		if s.ghostRoom(c) {
			s.slotRoom(c)
			n := s.idx.Insert(key)
			s.idx.Value(n).where = inGhost
			s.idx.PushFront(&s.ghost, n)
		}
		c.evicted(s, key, obs.EvDemoteGhost, obs.ReasonSizeAdmission)
		return
	}
	for s.small.used+cost > s.small.max {
		c.evictSmallOne(s)
	}
	s.slotRoom(c)
	s.insert(inSmall, key, value, cost, e)
	c.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
}

// overwrite updates a resident object in place and rebalances its region.
// A cost that no longer fits the region at all drops the object.
func (c *QDLP) overwrite(s *shard, n int32, v *slot, value uint64, e entry) {
	if c.cost(value) > s.region(v).max {
		e.free()
		s.drop(&c.base, n, obs.ReasonSizeAdmission)
		return
	}
	s.overwrite(&c.base, n, v, value, e)
	c.touch(s, n, v)
	for s.main.used > s.main.max {
		evictClock(s, &c.base)
	}
	for s.small.used > s.small.max {
		c.evictSmallOne(s)
	}
}

// evictSmallOne pops the probationary FIFO tail: referenced objects are
// lazily promoted into the main region (which may evict there to make
// room), untouched objects fall to the ghost — the quick demotion that
// IS the eviction, and a relink: the key keeps its slot. Caller holds the
// exclusive lock and guarantees the probation list is non-empty.
func (c *QDLP) evictSmallOne(s *shard) {
	n := s.small.list.Back()
	key, v := s.idx.Key(n), s.idx.Value(n)
	if v.freq == 0 {
		// Quick demotion: never re-requested — this is the eviction.
		s.vacate(&c.base, n, v)
		if s.ghostRoom(c) {
			s.idx.Unlink(&s.small.list, n)
			v.value, v.where = 0, inGhost
			s.idx.PushFront(&s.ghost, n)
		} else {
			s.idx.Remove(&s.small.list, n)
		}
		c.evicted(s, key, obs.EvDemoteGhost, obs.ReasonProbationOverflow)
		return
	}
	// Lazy promotion: the object earned the main region while waiting.
	c.rec.Record(obs.Event{Key: key, Kind: obs.EvPromote, Freq: uint8(v.freq)})
	cost := c.cost(v.value)
	if cost > s.main.max {
		// Too large for main even so: drop it, bytes and all.
		s.drop(&c.base, n, obs.ReasonSizeAdmission)
		return
	}
	s.idx.Unlink(&s.small.list, n)
	s.small.used -= cost
	for s.main.used+cost > s.main.max {
		evictClock(s, &c.base)
	}
	v.where, v.freq = inMain, 0
	s.idx.PushFront(&s.main.list, n)
	s.main.used += cost
}

// ghostRoom makes room for one more remembered key, forgetting the oldest
// beyond the bound, and reports whether the ghost remembers anything at
// all (a small GhostFactor can round it away). The bound is GhostFactor ×
// the main region's current population, at least ghostMin. The ghost is an
// exact FIFO: a readmitted key leaves it at once, so a key demoted again is
// remembered for a full `limit` further demotions.
func (s *shard) ghostRoom(c *QDLP) bool {
	limit := max(int(c.ghostFac*float64(s.main.list.Len())), s.ghostMin)
	for s.ghost.Len() > 0 && s.ghost.Len() >= limit {
		s.idx.Remove(&s.ghost, s.ghost.Back())
	}
	return limit > 0
}

// slotRoom frees an index slot for an admission when the shard holds
// `slots` keys (see index): ghosts go first, then residents.
func (s *shard) slotRoom(c *QDLP) {
	for s.idx.Len() >= s.slots {
		switch {
		case s.ghost.Len() > 0:
			s.idx.Remove(&s.ghost, s.ghost.Back())
		case s.small.list.Len() > 0:
			c.evictSmallOne(s)
		default:
			evictClock(s, &c.base)
		}
	}
}
