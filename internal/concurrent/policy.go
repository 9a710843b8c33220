package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/evict"
	"repro/internal/obs"
	"repro/internal/ttlwheel"
)

// EntryOverhead is the fixed per-object byte cost added to
// len(key)+len(value) when a byte-capped cache accounts an object. What an
// object really costs beyond its payload is more: its 96 B slab node (the
// slot that holds its header, plus key and list links), about 32 B of the
// index's at most quarter-full 8 B cells, and its buffer's class slack: up to
// an eighth of its payload, or the rest of the 64 B smallest class (see
// pool.go). The constant stays 64 anyway:
// changing it would move every byte-capped eviction decision and the
// simulator's golden_sized.txt with them.
const EntryOverhead = 64

// EntryCost is the accounted byte cost of one cached object — the value
// KV stores in the object's slot.
func EntryCost(keyLen, valueLen int) int64 {
	return int64(keyLen) + int64(valueLen) + EntryOverhead
}

// minShardBytes is the smallest per-shard byte budget that still fits at
// least one small object (cost = key+value+EntryOverhead).
const minShardBytes = 2 * EntryOverhead

// slot is everything a shard knows about one key, by value in the shard's
// slab: the policy's metadata (Size is the caller's value, under a KV the
// accounted cost) and, under a KV, the object's header, one probe away. The
// shared-lock hit path bumps Freq with sync/atomic functions; holders of the
// exclusive lock read and write it plainly. It is a bare word, not an
// atomic.Uint32, because the slab copies slots when it grows.
type slot = evict.Slot[payload]

type payload struct {
	// epoch is the slot's recycle epoch: moved to a fresh value, under the
	// exclusive lock, whenever the slot's object is released or a new one
	// placed, and read atomically around every copy out of the object (see
	// appendTo). A bare word for the same reason as Freq.
	epoch uint32
	// e is the KV object, zero under a bare Cache and for ghosts. Its timer
	// on the shard's wheel is this slot's number, armed exactly while
	// e.expireAt > 0.
	e entry
}

// shard is one lock over one eviction engine: every resident key — and, for
// QDLP, every ghost — is a slot of its index, threaded onto exactly one of
// the engine's lists. mu guards everything but the hit and miss counters
// and the slots' Freq words. The engine decides; the shard is its Sink,
// releasing each victim's object and reporting the eviction.
type shard struct {
	mu sync.RWMutex
	evict.Engine[payload]
	b     *base
	epoch uint32 // the last epoch handed to a slot, see payload.epoch

	wheel *ttlwheel.Wheel // TTL timers of the KV's objects, by slot; nil under a bare Cache
	// valueBytes is the KV's payload occupancy (sum of value lengths);
	// bufferBytes what holds it (sum of its objects' buffer capacities).
	valueBytes  int64
	bufferBytes int64
	stats       opStats
	// _ ends the shard at 256 bytes, a whole number of cache lines
	// (TestShardPadding), which limits false sharing between shards.
	_ [8]byte
}

// base is the Cache of every policy: the shards, a budget in cost units,
// the hit path, and the eviction plumbing. Each shard's engine evicts until
// its regions fit; the capacity mode decides only what an object costs
// (its value, or one unit) and how the budget is reported (see ShardStats).
// LRU's hit, which relinks, is lruCache.Get.
type base struct {
	name    string
	shards  []shard
	mask    uint64
	max     int64 // whole-cache budget in cost units
	byBytes bool  // WithMaxBytes: cost units are accounted bytes, not objects
	// maxFreq is where a hit's counter bump saturates (SIEVE's visited bit
	// is a counter that saturates at 1). Zero selects LRU's hit instead: a
	// relink to the queue's head, under the exclusive lock.
	maxFreq uint32
	onEvict func(uint64, obs.Reason)
	rec     *obs.Recorder
}

// lruCache is base with LRU's hit path.
type lruCache struct{ *base }

// shared is the seam between KV and the caches New builds: the shards.
func (b *base) shared() *base { return b }

// newBase validates the shard layout and divides the budget exactly:
// remainder units go to the first shards, the per-shard budgets sum to
// cfg.max, and no shard gets less than min. Each shard's engine runs rule
// with bits-bit counters; QDLP's takes the paper's sizing (probation a
// tenth of the shard, a ghost as large as the main region).
func newBase(name string, cfg config, min int64, rule evict.Rule, bits int) (*base, error) {
	n := int64(shardCount(cfg.shards))
	if cfg.max < n*min {
		return nil, fmt.Errorf("concurrent: capacity %d below shard count %d × the %d-unit shard minimum (use fewer shards or a larger capacity)",
			cfg.max, n, min)
	}
	b := &base{name: name, shards: make([]shard, n), mask: uint64(n - 1), max: cfg.max, byBytes: cfg.byBytes, maxFreq: uint32(1)<<bits - 1}
	// No object a KV stores costs less than EntryOverhead plus a one-byte
	// key; a bare byte-capped Cache fed costs below that runs out of index
	// slots before bytes, and evicts for slots as it does for bytes.
	minCost := int64(1)
	if cfg.byBytes {
		minCost = EntryOverhead + 1
	}
	for i := range b.shards {
		per := cfg.max / n
		if int64(i) < cfg.max%n {
			per++
		}
		s := &b.shards[i]
		s.b = b
		s.Init(evict.Config{
			Rule: rule, Budget: per, Bytes: cfg.byBytes, Bits: bits, MinCost: minCost,
			ProbationFrac: 0.1, GhostFactor: 1, MinRegion: cfg.minRegion,
		}, s)
	}
	return b, nil
}

func (b *base) shard(key uint64) *shard {
	return &b.shards[hash(key)&b.mask]
}

// lockHit takes the lock a KV hit runs under: shared, so hits proceed in
// parallel, for every policy whose promotion is a counter store; exclusive
// for LRU, whose promotion relinks the queue.
func (b *base) lockHit(s *shard) {
	if b.maxFreq == 0 {
		s.mu.Lock()
	} else {
		s.mu.RLock()
	}
}

func (b *base) unlockHit(s *shard) {
	if b.maxFreq == 0 {
		s.mu.Unlock()
	} else {
		s.mu.RUnlock()
	}
}

// bump is the lazy promotion: one counter store, no queue movement. The
// race between concurrent readers is benign — the counter is a hint.
func bump(v *slot, maxFreq uint32) {
	if f := atomic.LoadUint32(&v.Freq); f < maxFreq {
		atomic.StoreUint32(&v.Freq, f+1)
	}
}

// touch is the promotion of a hit on resident slot n, under lockHit or the
// exclusive lock: the lazy one, or LRU's relink.
func (b *base) touch(s *shard, n int32, v *slot) {
	if b.maxFreq == 0 {
		s.X.MoveToFront(&s.Main.List, n)
	} else {
		bump(v, b.maxFreq)
	}
}

// resident returns key's slot when the key holds data, 0 for an absent key
// and for a ghost.
func (s *shard) resident(key uint64) (int32, *slot) {
	n := s.X.Find(key)
	if n == 0 {
		return 0, nil
	}
	v := s.X.Value(n)
	if v.Where == evict.InGhost {
		return 0, nil
	}
	return n, v
}

// Get implements Cache for the lazy-promotion policies: one probe and one
// atomic counter store under the shared lock. No pointer updates, no
// exclusive locking, and (resident is written out because the compiler will
// not inline it) no call that is not inlined — this is the hit path whose
// cost the paper's scalability argument is about.
func (b *base) Get(key uint64) (uint64, bool) {
	s := b.shard(key)
	s.mu.RLock()
	n := s.X.Find(key)
	v := s.X.Value(n)
	if n == 0 || v.Where == evict.InGhost {
		s.mu.RUnlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	value := v.Size
	bump(v, b.maxFreq)
	s.mu.RUnlock()
	s.stats.hits.Add(1)
	return value, true
}

// Get implements Cache for LRU: every hit takes the shard's exclusive lock
// to splice the entry to the head of the recency list — the six-pointer
// update the paper identifies as LRU's scalability bottleneck.
func (c lruCache) Get(key uint64) (uint64, bool) {
	s := c.shard(key)
	s.mu.Lock()
	n := s.X.Find(key)
	if n == 0 {
		s.mu.Unlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	s.X.MoveToFront(&s.Main.List, n) // eager promotion: pointer surgery under lock
	value := s.X.Value(n).Size
	s.mu.Unlock()
	s.stats.hits.Add(1)
	return value, true
}

// Set implements Cache.
func (b *base) Set(key, value uint64) { b.set(key, value, entry{}) }

// set stores value, with e as its object under a KV, in one exclusive
// section: an overwrite re-charges the resident slot, a miss asks the
// engine to admit the key (evicting as its rule says). An object the
// engine refuses, too large for the region it would enter, is recycled
// and counted as an eviction for size.
func (b *base) set(key, value uint64, e entry) {
	s := b.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.sets++
	ghost := s.X.Find(key)
	if ghost != 0 {
		if v := s.X.Value(ghost); v.Where != evict.InGhost {
			s.release(ghost, v)
			v.P.e = e
			s.attach(ghost, v)
			s.stats.usedBytes += int64(value) - int64(v.Size)
			s.Resize(ghost, value)
			return
		}
		// Quick-demotion mistake: the engine readmits the key straight
		// into the main region, in the slot that remembered it.
		b.rec.Record(obs.Event{Key: key, Kind: obs.EvGhostReadmit})
	}
	n := s.Admit(key, ghost, value)
	if n == 0 {
		e.free()
		b.evicted(s, key, obs.EvEvict, obs.ReasonSizeAdmission)
		return
	}
	v := s.X.Value(n)
	v.P = payload{epoch: s.epoch, e: e}
	s.stats.usedBytes += int64(value)
	s.attach(n, v)
	if ghost == 0 {
		b.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
	}
}

// Delete implements Cache.
func (b *base) Delete(key uint64) bool {
	s := b.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, v := s.resident(key)
	if n == 0 {
		return false
	}
	s.remove(n, v)
	s.stats.deletes++
	return true
}

// Name implements Cache.
func (b *base) Name() string { return b.name }

// Capacity implements Cache: byte-capped caches have no object capacity.
func (b *base) Capacity() int {
	if b.byBytes {
		return 0
	}
	return int(b.max)
}

// Len implements Cache.
func (b *base) Len() int { return b.Stats().Len }

// Stats implements Cache.
func (b *base) Stats() Snapshot { return sumSnapshots(b.ShardStats()) }

// ShardStats implements Cache, reporting each shard's budget as an object
// capacity or a byte budget according to the mode.
func (b *base) ShardStats() []Snapshot {
	out := make([]Snapshot, len(b.shards))
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		out[i] = s.stats.snapshot(s.Len())
		out[i].ValueBytes = s.valueBytes
		out[i].BufferBytes = s.bufferBytes
		s.mu.RUnlock()
		if b.byBytes {
			out[i].MaxBytes = s.Main.Max + s.Prob.Max
		} else {
			out[i].Capacity = int(s.Main.Max + s.Prob.Max)
		}
	}
	return out
}

// SetEvictHook implements Cache.
func (b *base) SetEvictHook(fn func(uint64, obs.Reason)) { b.onEvict = fn }

// SetRecorder implements Cache.
func (b *base) SetRecorder(rec *obs.Recorder) { b.rec = rec }

// evicted counts, records, and reports one capacity removal or refused
// admission. Caller holds the shard's exclusive lock.
func (b *base) evicted(s *shard, key uint64, kind obs.EventKind, reason obs.Reason) {
	s.stats.evictions++
	b.rec.Record(obs.Event{Key: key, Kind: kind, Reason: reason})
	if b.onEvict != nil {
		b.onEvict(key, reason)
	}
}

// causeReason names each engine eviction cause as the server reports it.
var causeReason = [...]obs.Reason{
	evict.Capacity: obs.ReasonCapacity,
	evict.Sweep:    obs.ReasonMainClock,
	evict.Demoted:  obs.ReasonProbationOverflow,
	evict.TooLarge: obs.ReasonSizeAdmission,
}

var _ evict.Sink = (*shard)(nil)

// Evicted implements evict.Sink: the victim's object is released and the
// eviction counted, recorded and reported — as a demotion to the ghost
// when the slot stays on as one.
func (s *shard) Evicted(n int32, c evict.Cause) {
	key, v := s.X.Key(n), s.X.Value(n)
	s.stats.usedBytes -= int64(v.Size)
	s.release(n, v)
	kind := obs.EvEvict
	if c == evict.Demoted {
		kind = obs.EvDemoteGhost
	}
	s.b.evicted(s, key, kind, causeReason[c])
}

// Spared implements evict.Sink: each lazy-promotion decision is recorded
// with the counter that earned it.
func (s *shard) Spared(n int32, freq uint32) {
	s.b.rec.Record(obs.Event{Key: s.X.Key(n), Kind: obs.EvPromote, Freq: uint8(freq)})
}

// attach accounts slot n's new object and arms its expiry.
func (s *shard) attach(n int32, v *slot) {
	s.valueBytes += int64(len(v.P.e.value()))
	s.bufferBytes += int64(cap(v.P.e.buf))
	if v.P.e.expireAt > 0 {
		s.wheel.Schedule(n, v.P.e.expireAt)
	}
}

// release un-accounts slot n's object, disarms its expiry and returns its
// buffer, leaving the slot empty at a fresh epoch. The epoch moves before
// the buffer is freed, so a reader's copy from it fails its check.
func (s *shard) release(n int32, v *slot) {
	if v.P.e.buf == nil {
		return
	}
	s.valueBytes -= int64(len(v.P.e.value()))
	s.bufferBytes -= int64(cap(v.P.e.buf))
	if v.P.e.expireAt > 0 {
		s.wheel.Remove(n)
	}
	s.epoch++
	atomic.StoreUint32(&v.P.epoch, s.epoch)
	v.P.e.free()
	v.P.e = entry{}
}

// remove forgets a resident key (Delete and expiry).
func (s *shard) remove(n int32, v *slot) {
	s.stats.usedBytes -= int64(v.Size)
	s.release(n, v)
	s.Remove(n)
}
