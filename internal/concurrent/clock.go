package concurrent

import "repro/internal/obs"

// Clock is a sharded thread-safe k-bit CLOCK (FIFO-Reinsertion) cache.
// The hit path takes only the shard's shared (read) lock and performs one
// atomic counter store — FIFO-Reinsertion "only needs to update a Boolean
// field upon the first request to a cached object without locking" (§3).
// Misses take the exclusive lock and pop the FIFO tail, reinserting
// recently referenced objects at the head with a decremented counter,
// until the shard's budget fits the new object.
type Clock struct {
	base // main = the FIFO, front = newest / reinserted
}

func newClock(cfg config) (Cache, error) {
	if err := rejectOptions("clock", cfg, true); err != nil {
		return nil, err
	}
	b, err := newQueues("concurrent-clock", cfg, uint32(1<<cfg.clockBits-1))
	if err != nil {
		return nil, err
	}
	return &Clock{b}, nil
}

// Set implements Cache.
func (c *Clock) Set(key, value uint64) { c.set(key, value, entry{}) }

func (c *Clock) set(key, value uint64, e entry) { c.setQueue(key, value, e, evictClock) }

// evictClock rotates the main queue until its tail is evictable, then
// evicts it: referenced objects are reinserted at the head with a
// decremented counter (each pass is a lazy-promotion decision, recorded
// with the counter that earned it). Terminates because every reinsertion
// decrements a positive counter. Caller holds the exclusive lock and
// guarantees the queue is non-empty.
func evictClock(s *shard, b *base) {
	for {
		tail := s.main.list.Back()
		v := s.idx.Value(tail)
		if v.freq == 0 {
			s.drop(b, tail, obs.ReasonMainClock)
			return
		}
		b.rec.Record(obs.Event{Key: s.idx.Key(tail), Kind: obs.EvPromote, Freq: uint8(v.freq)})
		v.freq--
		s.idx.MoveToFront(&s.main.list, tail)
	}
}
