package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/slab"
	"repro/internal/ttlwheel"
)

// EntryOverhead is the fixed per-object byte cost added to
// len(key)+len(value) when a byte-capped cache accounts an object. What an
// object really costs beyond its payload is more: its 96 B slab node (the
// slot that holds its header, plus key and list links), about 32 B of the
// index's at most half-full 16 B cells, and its buffer's class slack: up to
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

// slot is everything a shard knows about one key: the policy metadata and,
// under a KV, the object itself. It lives by value in the shard's slab, so
// the probe that finds a key has found its cost, its counter and, under a
// KV, its object's header; the bytes are one load further.
type slot struct {
	value uint64 // the caller's value; under a KV the accounted cost
	// freq is the CLOCK/SIEVE reference counter. The shared-lock hit path
	// bumps it with sync/atomic functions; holders of the exclusive lock
	// read and write it plainly. It is a bare word, not an atomic.Uint32,
	// because the slab copies slots when it grows.
	freq uint32
	// epoch is the slot's recycle epoch: moved to a fresh value, under the
	// exclusive lock, whenever the slot's object is released or a new one
	// placed, and read atomically around every copy out of the object (see
	// appendTo). A bare word for the same reason as freq.
	epoch uint32
	where uint8 // which list holds the slot
	// e is the KV object, zero under a bare Cache and for ghosts. Its timer
	// on the shard's wheel is this slot's number, armed exactly while
	// e.expireAt > 0.
	e entry
}

// The lists a slot can be on. inMain is the zero value: the only queue of
// LRU, CLOCK and SIEVE, and QDLP's CLOCK region.
const (
	inMain uint8 = iota
	inSmall
	inGhost
)

// region is one queue with its own budget: the whole shard for LRU, CLOCK
// and SIEVE, the probationary or the main queue for QDLP.
type region struct {
	list slab.List // front = newest
	max  int64     // budget in cost units
	used int64     // cost units held
}

// shard is one lock over one index. Every resident key — and, for QDLP,
// every ghost — is a slot of idx, threaded onto exactly one of the lists
// below. mu guards everything but the hit and miss counters and the slots'
// freq words.
type shard struct {
	mu  sync.RWMutex
	idx *slab.Index[slot]
	// slots bounds idx: what the budget can hold plus the ghost, see index.
	slots int

	main  region
	small region    // QDLP: probationary FIFO
	ghost slab.List // QDLP: keys remembered without data, front = newest
	hand  int32     // SIEVE: the next sweep resumes here; 0 = from the oldest
	epoch uint32    // the last epoch handed to a slot, see slot.epoch

	admitMax int64 // QDLP: size-aware admission threshold
	ghostMin int   // QDLP: floor of the ghost's bound, see ghostRoom

	wheel *ttlwheel.Wheel // TTL timers of the KV's objects, by slot; nil under a bare Cache
	// valueBytes is the KV's payload occupancy (sum of value lengths);
	// bufferBytes what holds it (sum of its objects' buffer capacities).
	valueBytes  int64
	bufferBytes int64
	stats       opStats
	_           [40]byte // pad to 256 bytes (TestShardPadding) to limit false sharing between shards
}

// base is what every policy shares: the shards, a budget in cost units, the
// hit path, and the eviction plumbing. Each shard evicts until used + cost
// ≤ max; the capacity mode decides only what an object costs (see cost) and
// how the budget is reported (see ShardStats). Policies embed it by value, so
// its methods are direct calls — nothing here puts an indirect call on Get.
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

// plane is the seam between KV and the policies New builds: the shards
// themselves, and the policy's Set with the object to store in the slot.
type plane interface {
	Cache
	shared() *base
	set(key, value uint64, e entry)
}

func (b *base) shared() *base { return b }

// newBase validates the shard layout and divides the budget exactly:
// remainder units go to the first shards, the per-shard budgets sum to
// cfg.max (each shard's is left in main.max), and no shard gets less than
// min.
func newBase(name string, cfg config, min int64, maxFreq uint32) (base, error) {
	n := int64(shardCount(cfg.shards))
	if cfg.max < n*min {
		return base{}, fmt.Errorf("concurrent: capacity %d below shard count %d × the %d-unit shard minimum (use fewer shards or a larger capacity)",
			cfg.max, n, min)
	}
	b := base{name: name, shards: make([]shard, n), mask: uint64(n - 1), max: cfg.max, byBytes: cfg.byBytes, maxFreq: maxFreq}
	for i := range b.shards {
		b.shards[i].main.max = cfg.max / n
		if int64(i) < cfg.max%n {
			b.shards[i].main.max++
		}
	}
	return b, nil
}

// newQueues is newBase for the single-queue policies.
func newQueues(name string, cfg config, maxFreq uint32) (base, error) {
	b, err := newBase(name, cfg, cfg.minShard, maxFreq)
	if err != nil {
		return base{}, err
	}
	for i := range b.shards {
		b.shards[i].index(&b, b.shards[i].main.max, 0)
	}
	return b, nil
}

// index sizes the shard's slab: one slot per resident the budget can hold,
// plus ghost slots. Under an entry cap that is budget + ghost; under a
// byte cap budget/(EntryOverhead+1) + ghost, since no object a KV stores
// costs less than EntryOverhead plus a one-byte key. The slab allocates as
// it fills, so a generous bound costs nothing. A bare byte-capped Cache fed
// costs below EntryOverhead can therefore run out of slots before it runs
// out of bytes, as can any shard at the slab's 2³⁰ clamp: it then evicts
// for slots exactly as it does for bytes (QDLP forgets ghosts first), so
// the shard never holds more than `slots` keys.
func (s *shard) index(b *base, budget int64, ghost int) {
	if b.byBytes {
		budget /= EntryOverhead + 1
	}
	s.slots = int(min(budget+int64(ghost), 1<<30-1))
	s.idx = slab.New[slot](s.slots)
}

func (b *base) shard(key uint64) *shard {
	return &b.shards[hash(key)&b.mask]
}

// cost derives an object's cost from its value — the one place the
// capacity mode touches an operation. Under a byte cap the value IS the
// accounted size; under an entry cap the value is an opaque payload and
// every object costs one unit.
func (b *base) cost(value uint64) int64 {
	if b.byBytes {
		return int64(value)
	}
	return 1
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
	if f := atomic.LoadUint32(&v.freq); f < maxFreq {
		atomic.StoreUint32(&v.freq, f+1)
	}
}

// touch is the promotion of a hit on resident slot n, under lockHit or the
// exclusive lock: the lazy one, or LRU's relink.
func (b *base) touch(s *shard, n int32, v *slot) {
	if b.maxFreq == 0 {
		s.idx.MoveToFront(&s.main.list, n)
	} else {
		bump(v, b.maxFreq)
	}
}

// resident returns key's slot when the key holds data, 0 for an absent key
// and for a ghost.
func (s *shard) resident(key uint64) (int32, *slot) {
	n := s.idx.Find(key)
	if n == 0 {
		return 0, nil
	}
	v := s.idx.Value(n)
	if v.where == inGhost {
		return 0, nil
	}
	return n, v
}

// Get implements Cache for the lazy-promotion policies: one probe and one
// atomic counter store under the shared lock. No pointer updates, no
// exclusive locking, and (resident is written out because the compiler will
// not inline it) no call that is not inlined — this is the hit path whose
// cost the paper's scalability argument is about. LRU has its own.
func (b *base) Get(key uint64) (uint64, bool) {
	s := b.shard(key)
	s.mu.RLock()
	n := s.idx.Find(key)
	v := s.idx.Value(n)
	if n == 0 || v.where == inGhost {
		s.mu.RUnlock()
		s.stats.misses.Add(1)
		return 0, false
	}
	value := v.value
	bump(v, b.maxFreq)
	s.mu.RUnlock()
	s.stats.hits.Add(1)
	return value, true
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
	s.remove(b, n, v)
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
		out[i] = s.stats.snapshot(s.main.list.Len() + s.small.list.Len())
		out[i].ValueBytes = s.valueBytes
		out[i].BufferBytes = s.bufferBytes
		s.mu.RUnlock()
		if b.byBytes {
			out[i].MaxBytes = s.main.max + s.small.max
		} else {
			out[i].Capacity = int(s.main.max + s.small.max)
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

// region returns the queue holding a resident slot.
func (s *shard) region(v *slot) *region {
	if v.where == inSmall {
		return &s.small
	}
	return &s.main
}

// attach accounts slot n's new object and arms its expiry.
func (s *shard) attach(n int32, v *slot) {
	s.valueBytes += int64(len(v.e.value()))
	s.bufferBytes += int64(cap(v.e.buf))
	if v.e.expireAt > 0 {
		s.wheel.Schedule(n, v.e.expireAt)
	}
}

// release un-accounts slot n's object, disarms its expiry and returns its
// buffer, leaving the slot empty at a fresh epoch. The epoch moves before
// the buffer is freed, so a reader's copy from it fails its check.
func (s *shard) release(n int32, v *slot) {
	if v.e.buf == nil {
		return
	}
	s.valueBytes -= int64(len(v.e.value()))
	s.bufferBytes -= int64(cap(v.e.buf))
	if v.e.expireAt > 0 {
		s.wheel.Remove(n)
	}
	s.epoch++
	atomic.StoreUint32(&v.epoch, s.epoch)
	v.e.free()
	v.e = entry{}
}

// insert admits a new key at the front of the queue `where` names. The
// caller has made room, in the region and in the index.
func (s *shard) insert(where uint8, key, value uint64, cost int64, e entry) {
	s.place(s.idx.Insert(key), where, value, cost, e)
}

// place makes slot n, which is on no list, a resident of the queue `where`
// names: value, object, accounting, and expiry. The slot takes the shard's
// latest epoch, since Insert zeroed its own: no epoch a reader could have
// seen on a former occupant of the slot comes back.
func (s *shard) place(n int32, where uint8, value uint64, cost int64, e entry) {
	v := s.idx.Value(n)
	v.value, v.where, v.e, v.epoch = value, where, e, s.epoch
	r := s.region(v)
	s.idx.PushFront(&r.list, n)
	r.used += cost
	s.stats.usedBytes += int64(value)
	s.attach(n, v)
}

// vacate un-accounts a resident slot, object included, and returns the
// region whose list the caller now takes it off.
func (s *shard) vacate(b *base, n int32, v *slot) *region {
	if s.hand == n {
		s.hand = s.idx.Prev(n) // SIEVE: a sweep in progress is not disturbed
	}
	r := s.region(v)
	r.used -= b.cost(v.value)
	s.stats.usedBytes -= int64(v.value)
	s.release(n, v)
	return r
}

// overwrite re-accounts resident slot n under a new value and object. The
// caller evicts afterwards if the region now exceeds its budget.
func (s *shard) overwrite(b *base, n int32, v *slot, value uint64, e entry) {
	s.region(v).used += b.cost(value) - b.cost(v.value)
	s.stats.usedBytes += int64(value) - int64(v.value)
	s.release(n, v)
	v.value, v.e = value, e
	s.attach(n, v)
}

// remove forgets a resident key (Delete, expiry, and the first half of
// every eviction).
func (s *shard) remove(b *base, n int32, v *slot) {
	s.idx.Remove(&s.vacate(b, n, v).list, n)
}

// drop evicts a resident key, firing the hook.
func (s *shard) drop(b *base, n int32, reason obs.Reason) {
	key := s.idx.Key(n)
	s.remove(b, n, s.idx.Value(n))
	b.evicted(s, key, obs.EvEvict, reason)
}

// setQueue is Set for the single-queue policies, which differ in how a hit
// promotes (touch) and in which resident evictOne picks. An object that
// cannot fit the shard's budget at all is refused, and takes the resident
// version of its key with it.
func (b *base) setQueue(key, value uint64, e entry, evictOne func(*shard, *base)) {
	cost := b.cost(value)
	s := b.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.sets++
	n, v := s.resident(key)
	switch {
	case cost > s.main.max:
		e.free()
		if n != 0 {
			s.drop(b, n, obs.ReasonSizeAdmission)
		} else {
			b.evicted(s, key, obs.EvEvict, obs.ReasonSizeAdmission)
		}
	case n != 0:
		s.overwrite(b, n, v, value, e)
		b.touch(s, n, v)
		for s.main.used > s.main.max {
			evictOne(s, b)
		}
	default:
		for s.main.used+cost > s.main.max || s.idx.Len() >= s.slots {
			evictOne(s, b)
		}
		s.insert(inMain, key, value, cost, e)
		b.rec.Record(obs.Event{Key: key, Kind: obs.EvAdmit})
	}
}
