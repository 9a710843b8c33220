package concurrent

import (
	"sync"

	"repro/internal/obs"
)

// LRU is a sharded thread-safe LRU cache. Every hit takes the shard's
// exclusive lock to splice the entry to the head of the recency list — the
// six-pointer update the paper identifies as LRU's scalability bottleneck.
// Set evicts from the cold tail until the shard's budget fits the new
// object, so under a byte cap one large object displaces many small ones.
type LRU struct {
	base
	shards []lruShard
}

type lruShard struct {
	mu    sync.Mutex
	queue          // front = MRU
	_     [24]byte // pad to limit false sharing between shards
}

func newLRU(cfg config) (Cache, error) {
	if err := rejectOptions("lru", cfg, false, false); err != nil {
		return nil, err
	}
	b, per, err := newBase("concurrent-lru", cfg, cfg.minShard)
	if err != nil {
		return nil, err
	}
	c := &LRU{base: b, shards: make([]lruShard, len(per))}
	for i := range c.shards {
		c.shards[i].queue = newQueue(per[i])
	}
	return c, nil
}

func (c *LRU) shard(key uint64) *lruShard {
	return &c.shards[hash(key)&c.mask]
}

// Get implements Cache. The promotion requires the exclusive lock.
func (c *LRU) Get(key uint64) (uint64, bool) {
	s := c.shard(key)
	s.mu.Lock()
	n, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	s.list.MoveToFront(n) // eager promotion: pointer surgery under lock
	v := n.Value.value
	s.mu.Unlock()
	s.stats.hits.Add(1)
	return v, true
}

// Set implements Cache. An object that cannot fit the shard's budget at
// all is refused: the eviction hook fires immediately so the data plane
// reclaims its bytes.
func (c *LRU) Set(key, value uint64) {
	cost := c.cost(value)
	s := c.shard(key)
	s.stats.sets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, resident := s.byKey[key]
	switch {
	case resident && cost > s.max:
		s.drop(&c.base, n, obs.ReasonSizeAdmission)
	case resident:
		s.overwrite(&c.base, n, value)
		s.list.MoveToFront(n)
		for s.used > s.max {
			s.drop(&c.base, s.list.Back(), obs.ReasonCapacity)
		}
	case cost > s.max:
		c.evicted(&s.stats, key, obs.EvEvict, obs.ReasonSizeAdmission)
	default:
		for s.used+cost > s.max {
			s.drop(&c.base, s.list.Back(), obs.ReasonCapacity)
		}
		s.insert(&c.base, key, value, cost)
	}
}

// Delete implements Cache.
func (c *LRU) Delete(key uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delete(&c.base, key)
}

// Len implements Cache.
func (c *LRU) Len() int { return c.Stats().Len }

// Stats implements Cache.
func (c *LRU) Stats() Snapshot { return sumSnapshots(c.ShardStats()) }

// ShardStats implements Cache.
func (c *LRU) ShardStats() []Snapshot {
	out := make([]Snapshot, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := s.list.Len()
		s.mu.Unlock()
		out[i] = c.snapshot(&s.stats, n, s.max)
	}
	return out
}
