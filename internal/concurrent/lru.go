package concurrent

import "repro/internal/obs"

// LRU is a sharded thread-safe LRU cache. Every hit takes the shard's
// exclusive lock to splice the entry to the head of the recency list — the
// six-pointer update the paper identifies as LRU's scalability bottleneck.
// Set evicts from the cold tail until the shard's budget fits the new
// object, so under a byte cap one large object displaces many small ones.
type LRU struct {
	base // main = the recency list, front = MRU
}

func newLRU(cfg config) (Cache, error) {
	if err := rejectOptions("lru", cfg, false, false); err != nil {
		return nil, err
	}
	b, err := newQueues("concurrent-lru", cfg, 0)
	if err != nil {
		return nil, err
	}
	return &LRU{b}, nil
}

// Get implements Cache. The promotion requires the exclusive lock.
func (c *LRU) Get(key uint64) (uint64, bool) {
	s := c.shard(key)
	s.mu.Lock()
	n := s.idx.Find(key)
	if n == 0 {
		s.mu.Unlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	s.idx.MoveToFront(&s.main.list, n) // eager promotion: pointer surgery under lock
	value := s.idx.Value(n).value
	s.mu.Unlock()
	s.stats.hits.Add(1)
	return value, true
}

// Set implements Cache.
func (c *LRU) Set(key, value uint64) { c.set(key, value, entry{}) }

func (c *LRU) set(key, value uint64, e entry) { c.setQueue(key, value, e, evictLRU) }

func evictLRU(s *shard, b *base) {
	s.drop(b, s.main.list.Back(), obs.ReasonCapacity)
}
