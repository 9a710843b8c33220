package concurrent

import "repro/internal/obs"

// Sieve is a sharded thread-safe SIEVE cache. Like Clock, its hit path is
// a shared lock plus one atomic store (the visited bit); unlike Clock,
// objects never move and the eviction hand retains its position across
// evictions, giving SIEVE its quick-demotion behaviour for new objects.
// Included alongside Clock and QDLP in the throughput comparison because
// SIEVE is the follow-up algorithm built on this paper's lazy-promotion
// insight.
type Sieve struct {
	base // main = insertion order, front = newest; shard.hand = the hand
}

func newSieve(cfg config) (Cache, error) {
	if err := rejectOptions("sieve", cfg, false, false); err != nil {
		return nil, err
	}
	b, err := newQueues("concurrent-sieve", cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Sieve{b}, nil
}

// Set implements Cache.
func (c *Sieve) Set(key, value uint64) { c.set(key, value, entry{}) }

func (c *Sieve) set(key, value uint64, e entry) { c.setQueue(key, value, e, evictSieve) }

// evictSieve runs the SIEVE sweep from the retained hand toward the head
// (newer objects), sparing visited objects (recorded as lazy promotions
// with Freq=1, the visited bit they spent) and evicting the first
// unvisited one. Caller holds the exclusive lock and guarantees the queue
// is non-empty.
func evictSieve(s *shard, b *base) {
	n := s.hand
	if n == 0 {
		n = s.main.list.Back()
	}
	for v := s.idx.Value(n); v.freq > 0; v = s.idx.Value(n) {
		v.freq = 0
		b.rec.Record(obs.Event{Key: s.idx.Key(n), Kind: obs.EvPromote, Freq: 1})
		if n = s.idx.Prev(n); n == 0 {
			n = s.main.list.Back() // wrap to the oldest
		}
	}
	s.hand = s.idx.Prev(n) // retain position for the next sweep
	s.drop(b, n, obs.ReasonMainClock)
}
