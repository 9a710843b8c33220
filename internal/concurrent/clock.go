package concurrent

import (
	"sync"

	"repro/internal/dlist"
	"repro/internal/obs"
)

// Clock is a sharded thread-safe k-bit CLOCK (FIFO-Reinsertion) cache.
// The hit path takes only the shard's shared (read) lock and performs one
// atomic counter store — FIFO-Reinsertion "only needs to update a Boolean
// field upon the first request to a cached object without locking" (§3).
// Misses take the exclusive lock and pop the FIFO tail, reinserting
// recently referenced objects at the head with a decremented counter,
// until the shard's budget fits the new object.
type Clock struct {
	base
	shards  []clockShard
	maxFreq uint32
}

type clockShard struct {
	mu    sync.RWMutex
	queue // front = newest / reinserted
	_     [24]byte
}

func newClock(cfg config) (Cache, error) {
	if err := rejectOptions("clock", cfg, true, false); err != nil {
		return nil, err
	}
	b, per, err := newBase("concurrent-clock", cfg, cfg.minShard)
	if err != nil {
		return nil, err
	}
	c := &Clock{base: b, shards: make([]clockShard, len(per)), maxFreq: uint32(1<<cfg.clockBits - 1)}
	for i := range c.shards {
		c.shards[i].queue = newQueue(per[i])
	}
	return c, nil
}

func (c *Clock) shard(key uint64) *clockShard {
	return &c.shards[hash(key)&c.mask]
}

// touch is the lazy promotion: one counter store, no queue movement. The
// race between concurrent readers is benign — the counter is a hint.
func touch(n *node, maxFreq uint32) {
	if f := n.Value.freq.Load(); f < maxFreq {
		n.Value.freq.Store(f + 1)
	}
}

// Get implements Cache: shared lock + one atomic store. No pointer
// updates, no exclusive locking — the lazy-promotion hit path.
func (c *Clock) Get(key uint64) (uint64, bool) {
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
func (c *Clock) Set(key, value uint64) {
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
		touch(n, c.maxFreq)
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

// sweep rotates a CLOCK queue until its tail is evictable: referenced
// objects are reinserted at the head with a decremented counter (each pass
// is a lazy-promotion decision, recorded with the counter that earned it).
// Terminates because every reinsertion decrements a positive counter.
// Caller holds the exclusive lock and guarantees the list is non-empty.
func sweep(l *dlist.List[entry], rec *obs.Recorder) {
	for {
		tail := l.Back()
		f := tail.Value.freq.Load()
		if f == 0 {
			return
		}
		tail.Value.freq.Store(f - 1)
		rec.Record(obs.Event{Key: tail.Value.key, Kind: obs.EvPromote, Freq: uint8(f)})
		l.MoveToFront(tail)
	}
}

// evictOne evicts the first zero-counter object the sweep reaches.
func (s *clockShard) evictOne(c *Clock) {
	sweep(&s.list, c.rec)
	s.drop(&c.base, s.list.Back(), obs.ReasonMainClock)
}

// Delete implements Cache.
func (c *Clock) Delete(key uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delete(&c.base, key)
}

// Len implements Cache.
func (c *Clock) Len() int { return c.Stats().Len }

// Stats implements Cache.
func (c *Clock) Stats() Snapshot { return sumSnapshots(c.ShardStats()) }

// ShardStats implements Cache.
func (c *Clock) ShardStats() []Snapshot {
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
