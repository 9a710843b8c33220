package concurrent

import (
	"sync"

	"repro/internal/obs"
)

// Sieve is a sharded thread-safe SIEVE cache. Like Clock, its hit path is
// a shared lock plus one atomic store (the visited bit); unlike Clock,
// objects never move and the eviction hand retains its position across
// evictions, giving SIEVE its quick-demotion behaviour for new objects.
// Included alongside Clock and QDLP in the throughput comparison because
// SIEVE is the follow-up algorithm built on this paper's lazy-promotion
// insight.
type Sieve struct {
	base
	shards []sieveShard
}

type sieveShard struct {
	mu    sync.RWMutex
	queue       // front = newest
	hand  *node // next sweep resumes here; nil = start from the oldest
	_     [24]byte
}

func newSieve(cfg config) (Cache, error) {
	if err := rejectOptions("sieve", cfg, false, false); err != nil {
		return nil, err
	}
	b, per, err := newBase("concurrent-sieve", cfg, cfg.minShard)
	if err != nil {
		return nil, err
	}
	c := &Sieve{base: b, shards: make([]sieveShard, len(per))}
	for i := range c.shards {
		c.shards[i].queue = newQueue(per[i])
	}
	return c, nil
}

func (c *Sieve) shard(key uint64) *sieveShard {
	return &c.shards[hash(key)&c.mask]
}

// Get implements Cache: shared lock + one atomic store (the visited bit).
func (c *Sieve) Get(key uint64) (uint64, bool) {
	s := c.shard(key)
	s.mu.RLock()
	n, ok := s.byKey[key]
	if !ok {
		s.mu.RUnlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	v := n.Value.value
	n.Value.freq.Store(1)
	s.mu.RUnlock()
	s.stats.hits.Add(1)
	return v, true
}

// Set implements Cache.
func (c *Sieve) Set(key, value uint64) {
	cost := c.cost(value)
	s := c.shard(key)
	s.stats.sets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, resident := s.byKey[key]
	switch {
	case resident && cost > s.max:
		s.release(n)
		s.drop(&c.base, n, obs.ReasonSizeAdmission)
	case resident:
		s.overwrite(&c.base, n, value)
		n.Value.freq.Store(1)
		for s.used > s.max {
			s.evictOne(c)
		}
	case cost > s.max:
		c.evicted(&s.stats, key, obs.EvEvict, obs.ReasonSizeAdmission)
	default:
		for s.used+cost > s.max {
			s.evictOne(c)
		}
		s.insert(&c.base, key, value, cost)
	}
}

// evictOne runs the SIEVE sweep from the retained hand toward the head
// (newer objects), sparing visited objects (recorded as lazy promotions
// with Freq=1, the visited bit they spent) and evicting the first
// unvisited one. Caller holds the exclusive lock and guarantees the list
// is non-empty.
func (s *sieveShard) evictOne(c *Sieve) {
	n := s.hand
	if n == nil {
		n = s.list.Back()
	}
	for n.Value.freq.Load() > 0 {
		n.Value.freq.Store(0)
		c.rec.Record(obs.Event{Key: n.Value.key, Kind: obs.EvPromote, Freq: 1})
		if n = n.Prev(); n == nil {
			n = s.list.Back() // wrap to the oldest
		}
	}
	s.hand = n.Prev() // retain position for the next sweep
	s.drop(&c.base, n, obs.ReasonMainClock)
}

// release moves the hand off a node about to leave the list, so a sweep
// in progress is not disturbed.
func (s *sieveShard) release(n *node) {
	if s.hand == n {
		s.hand = n.Prev()
	}
}

// Delete implements Cache.
func (c *Sieve) Delete(key uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byKey[key]
	if ok {
		s.release(n)
		s.remove(&c.base, n)
		s.stats.deletes.Add(1)
	}
	return ok
}

// Len implements Cache.
func (c *Sieve) Len() int { return c.Stats().Len }

// Stats implements Cache.
func (c *Sieve) Stats() Snapshot { return sumSnapshots(c.ShardStats()) }

// ShardStats implements Cache.
func (c *Sieve) ShardStats() []Snapshot {
	out := make([]Snapshot, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n := s.list.Len()
		s.mu.RUnlock()
		out[i] = c.snapshot(&s.stats, n, s.max)
	}
	return out
}
