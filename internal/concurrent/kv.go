package concurrent

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ttlwheel"
)

// KV is the byte-valued view of a Cache built by New: the same shards, the
// same locks, the same index. Where the bare Cache keeps a uint64 value in a
// key's slot, KV keeps there the object's accounted size (the cost a
// byte-capped policy budgets) and the object itself: its header — flags,
// cas token, expiry — inline in the slot, and its key and value in one
// buffer the slot points at. There is no second structure: the probe that
// finds a key's policy metadata has found its object, and whatever evicts,
// demotes, overwrites or deletes a slot frees its buffer in the same
// critical section, so residency in the policy IS residency of the data.
// The Cache handed to NewKV is thereafter driven only through the KV.
//
// Locking. One sync.RWMutex per shard and no other lock on any operation;
// AdvanceTTL's ttlMu is taken before, never inside, a shard's.
//   - Get, AppendHit and GetMulti run in one shared-lock section: probe,
//     full-key compare, expiry check, copy out, and the policy's lazy
//     promotion (one atomic counter store). Under LRU the same steps run in
//     its one exclusive section, because its promotion relinks the queue.
//     They never mutate anything else: a lazily expired object answers as a
//     miss and is left for the wheel.
//   - SetDigest fills the object's buffer outside the lock, then runs the
//     policy's Set in one exclusive section: find or admit, evict until it
//     fits, free every victim's buffer. Delete, Touch and the wheel's
//     reclaim are single exclusive sections too.
//
// The data is GC-light: an object's only allocation is its size-classed
// pooled buffer (see pool.go), and the slot is its only other home. The
// shard's TTL wheel names each timer by its slot number, so slab growth may
// move slots freely. Buffers are freed only under the exclusive lock, after
// moving the slot to a fresh epoch; readers re-check the slot's epoch after
// copying, which turns any future violation of that discipline into a safe
// miss instead of cross-key corruption. Distinct keys colliding on the
// 64-bit digest share a slot: the later Set wins it, and full-key
// comparison serves the loser as a miss.
type KV struct {
	b      *base // the shards, shared with the Cache it views
	casSeq atomic.Uint64
	smp    *obs.KeySampler

	// nowSec is the coarse TTL clock (unix seconds) the shared-lock hit
	// path compares expireAt against — one atomic load, no time syscall,
	// no allocation. It advances via SetNow/AdvanceTTL (typically the
	// StartExpiry ticker).
	nowSec  atomic.Int64
	expired atomic.Int64 // entries reclaimed proactively by the wheel
	ttlMu   sync.Mutex   // serializes AdvanceTTL (one ticker plus any manual calls)
}

// entry is one cached object, held by value in its key's slot. buf holds
// the key and then the value, in a buffer from getBuf whose pool handle is
// handle; buf is nil when the slot holds no object. The shard's exclusive
// lock guards every field: readers see them only under the shared lock.
type entry struct {
	buf    []byte
	handle *[]byte
	cas    uint64
	// expireAt is the absolute expiry (unix seconds), 0 = never. Readers
	// compare it against KV.nowSec under the shared lock; it is written
	// before the object is stored and by TouchDigest.
	expireAt int64
	flags    uint32
	keyLen   uint32
}

// newEntry builds an object holding private copies of key and value.
func newEntry(key, value []byte, flags uint32, cas uint64, expireAt int64) entry {
	buf, handle := getBuf(len(key) + len(value))
	copy(buf, key)
	copy(buf[len(key):], value)
	return entry{buf: buf, handle: handle, cas: cas, expireAt: expireAt, flags: flags, keyLen: uint32(len(key))}
}

func (e *entry) key() []byte   { return e.buf[:e.keyLen] }
func (e *entry) value() []byte { return e.buf[e.keyLen:] }

// free returns e's buffer to its pool. The caller holds the owning shard's
// exclusive lock and has moved the slot's epoch, or e was never stored.
func (e *entry) free() { putBuf(e.handle, cap(e.buf)) }

// NewKV returns the byte-valued view of inner, which must have been built
// by New (anything else panics: there would be no shards to view) and must
// not be shared with another KV. dataShards is ignored — the KV's shards
// are inner's — and stays in the signature only for its callers' sake.
func NewKV(inner Cache, dataShards int) *KV {
	p, ok := inner.(interface{ shared() *base })
	if !ok {
		panic("concurrent: NewKV needs a Cache built by concurrent.New, got " + inner.Name())
	}
	kv := &KV{b: p.shared()}
	now := time.Now().Unix()
	kv.nowSec.Store(now)
	for i := range kv.b.shards {
		kv.b.shards[i].wheel = ttlwheel.New(now)
	}
	return kv
}

// SetSampler attaches a spatial key sampler to the read path: every get
// request's digest (hit or miss — mrc.Online's miniatures of the served
// policy replay the full read stream) is Offered before the lookup. Offer
// is lock-free and allocation-free, so the hit path stays 0 allocs/op with
// sampling on. Call before the store is shared. Writes (set/delete) are not
// sampled: the curve predicts the get hit ratio.
func (kv *KV) SetSampler(smp *obs.KeySampler) {
	kv.smp = smp
}

// lookup returns the slot and object stored under id when that object's
// key is key and it has not expired. A ghost, a colliding digest and a
// lazily expired object (left for the wheel) are all misses. Caller holds
// the shard's lock.
func (kv *KV) lookup(s *shard, id uint64, key []byte) (int32, *slot) {
	n := s.X.Find(id)
	if n == 0 {
		return 0, nil
	}
	v := s.X.Value(n)
	if v.P.e.buf == nil || !bytes.Equal(v.P.e.key(), key) {
		return 0, nil
	}
	if exp := v.P.e.expireAt; exp != 0 && exp <= kv.nowSec.Load() {
		return 0, nil
	}
	return n, v
}

// Get appends the cached value for key to dst and returns the extended
// slice (so `kv.Get(buf[:0], key)` reuses buf allocation-free), with the
// entry's flags and cas token. On a miss dst is returned unchanged.
func (kv *KV) Get(dst, key []byte) (value []byte, flags uint32, cas uint64, ok bool) {
	return kv.GetDigest(dst, key, Digest(key))
}

// GetDigest is Get with the key's digest already computed (the server
// hashes each key once at parse time and threads the digest down).
func (kv *KV) GetDigest(dst, key []byte, id uint64) (value []byte, flags uint32, cas uint64, ok bool) {
	out, _, flags, cas, ok := kv.appendHit(dst, key, id, nil)
	return out, flags, cas, ok
}

// HitHeaderFunc appends a response header for a hit to dst and returns the
// extended slice. It runs under the shard's lock, so it must
// only append — no blocking, locking, or I/O.
type HitHeaderFunc func(dst, key []byte, valueLen int, flags uint32, cas uint64) []byte

// AppendHit is the server's zero-copy hit path: on a hit it appends a
// header (via hdr, which sees the value length before the bytes) followed
// by the value to dst — typically the connection's multiBuf, whose
// chunks go to the socket in one writev, so the value bytes need no
// intermediate copy. On a miss (or a failed epoch check) dst is
// returned unchanged. valueLen reports the appended value's length.
func (kv *KV) AppendHit(dst, key []byte, id uint64, hdr HitHeaderFunc) (out []byte, valueLen int, ok bool) {
	out, valueLen, _, _, ok = kv.appendHit(dst, key, id, hdr)
	return out, valueLen, ok
}

// appendHit is the hit path: one probe, compare, copy and promotion inside
// one lock section (see the KV comment).
func (kv *KV) appendHit(dst, key []byte, id uint64, hdr HitHeaderFunc) (_ []byte, valueLen int, flags uint32, cas uint64, ok bool) {
	kv.smp.Offer(id)
	s := kv.b.shard(id)
	kv.b.lockHit(s)
	n, v := kv.lookup(s, id, key)
	if n != 0 {
		dst, ok = v.P.appendTo(dst, key, hdr)
	}
	if !ok {
		kv.b.unlockHit(s)
		s.stats.misses.Add(1)
		return dst, 0, 0, 0, false
	}
	valueLen, flags, cas = len(v.P.e.value()), v.P.e.flags, v.P.e.cas
	kv.b.touch(s, n, v)
	kv.b.unlockHit(s)
	s.stats.hits.Add(1)
	return dst, valueLen, flags, cas, true
}

// appendTo appends hdr's header (when given) and the slot's value to dst
// under the shard's lock, validating the slot's epoch around the copy.
func (v *payload) appendTo(dst, key []byte, hdr HitHeaderFunc) ([]byte, bool) {
	epoch := atomic.LoadUint32(&v.epoch)
	base := len(dst)
	value := v.e.value()
	if hdr != nil {
		dst = hdr(dst, key, len(value), v.e.flags, v.e.cas)
	}
	dst = append(dst, value...)
	if atomic.LoadUint32(&v.epoch) != epoch {
		// Object freed mid-copy: impossible while freeing requires this
		// shard's exclusive lock, but fail safe to a miss rather than serve
		// another key's bytes.
		return dst[:base], false
	}
	return dst, true
}

// MultiHit is one key's result in a GetMulti batch. On a hit the value is
// buf[Start:End] of the buffer GetMulti returns.
type MultiHit struct {
	Start, End int
	Flags      uint32
	CAS        uint64
	Hit        bool
}

// GetMulti looks up keys[i] (with digest ids[i]) as one shard-batched
// operation: keys are grouped by shard and each shard's lock is taken once
// per batch instead of once per key, with one counter update per shard.
// Values are appended back-to-back to dst (returned extended); out[i]
// records each key's result in request order. All three slices must have
// equal length; out is fully overwritten. The grouping scan is quadratic in
// the batch size, which is fine at pipelined-request scale (the server caps
// batches at MaxKeysPerGet).
func (kv *KV) GetMulti(dst []byte, keys [][]byte, ids []uint64, out []MultiHit) []byte {
	if len(keys) != len(ids) || len(keys) != len(out) {
		panic("concurrent: GetMulti keys/ids/out lengths differ")
	}
	for i := range out {
		kv.smp.Offer(ids[i])
		// Start = -1 marks not yet visited; until then End caches the key's
		// shard index so the pairwise grouping scan compares integers
		// instead of re-mixing the digest.
		out[i] = MultiHit{Start: -1, End: int(hash(ids[i]) & kv.b.mask)}
	}
	for i := range keys {
		if out[i].Start != -1 {
			continue
		}
		sIdx := out[i].End
		s := &kv.b.shards[sIdx]
		var hits int64
		visited := int64(0)
		kv.b.lockHit(s)
		for j := i; j < len(keys); j++ {
			if out[j].Start != -1 || out[j].End != sIdx {
				continue
			}
			visited++
			out[j] = MultiHit{}
			n, v := kv.lookup(s, ids[j], keys[j])
			if n == 0 {
				continue
			}
			start := len(dst)
			var ok bool
			if dst, ok = v.P.appendTo(dst, nil, nil); !ok {
				continue
			}
			out[j] = MultiHit{Start: start, End: len(dst), Flags: v.P.e.flags, CAS: v.P.e.cas, Hit: true}
			kv.b.touch(s, n, v)
			hits++
		}
		kv.b.unlockHit(s)
		if hits != 0 {
			s.stats.hits.Add(hits)
		}
		if hits != visited {
			s.stats.misses.Add(visited - hits)
		}
	}
	return dst
}

// Set stores a private copy of key and value (in a pooled buffer) and
// returns the cas token stamped on this version. The object never expires;
// use SetDigest for a TTL.
func (kv *KV) Set(key, value []byte, flags uint32) uint64 {
	return kv.SetDigest(key, value, flags, Digest(key), 0)
}

// SetDigest is Set with the key's digest already computed and an absolute
// expiry deadline in unix seconds (0 = never). The deadline is stamped on
// the entry (for the lazy check on the hit path) and scheduled on the
// shard's timer wheel (for proactive reclaim via AdvanceTTL). The policy
// cost is EntryCost, key and value plus EntryOverhead, so under a byte cap
// the resident keys and values fit the budget. Their buffers hold a little
// more: each is its object's key and value rounded up by at most an eighth,
// to at least 64 B and to what the Go allocator hands out for that size
// (see pool.go); Stats reports their sum as BufferBytes. Slab nodes and
// index cells come on top (see EntryOverhead). A policy that refuses the
// object, too large for the region it would enter, recycles it and stores
// nothing.
func (kv *KV) SetDigest(key, value []byte, flags uint32, id uint64, expireAt int64) uint64 {
	// The cas token lives in a local: once set returns a concurrent
	// overwrite may have replaced the object.
	cas := kv.casSeq.Add(1)
	kv.b.set(id, uint64(EntryCost(len(key), len(value))), newEntry(key, value, flags, cas, expireAt))
	return cas
}

// Delete removes key, reporting whether it was present.
func (kv *KV) Delete(key []byte) bool {
	return kv.DeleteDigest(key, Digest(key))
}

// DeleteDigest is Delete with the key's digest already computed.
func (kv *KV) DeleteDigest(key []byte, id uint64) bool {
	return kv.remove(key, id, obs.EvDelete, obs.ReasonDeleted)
}

// ExpireDigest removes an already-expired key (the server's negative-exptime
// store), reporting whether a value was dropped. It is Delete with the
// lifecycle event recorded as an expiry instead of a client delete, so a
// key watch can tell TTL churn from deletions.
func (kv *KV) ExpireDigest(key []byte, id uint64) bool {
	return kv.remove(key, id, obs.EvExpire, obs.ReasonExpired)
}

// remove implements DeleteDigest/ExpireDigest. A lazily expired object
// counts as present: its bytes are still held, and this reclaims them.
func (kv *KV) remove(key []byte, id uint64, kind obs.EventKind, reason obs.Reason) bool {
	s := kv.b.shard(id)
	s.mu.Lock()
	n, v := s.resident(id)
	found := n != 0 && bytes.Equal(v.P.e.key(), key)
	if found {
		s.remove(n, v)
		s.stats.deletes++
	}
	s.mu.Unlock()
	if found {
		kv.b.rec.Record(obs.Event{Key: id, Kind: kind, Reason: reason})
	}
	return found
}

// TouchDigest updates key's expiry deadline in place (0 = never) and
// reschedules its slot's timer, reporting whether the key was present
// and unexpired. Touch is the one mutation of expireAt after entry
// construction, so it runs under the shard's exclusive lock — readers
// compare expireAt only under the shared lock, which this excludes. An
// already lazily-expired entry answers not-found and is left for the
// wheel to reclaim, exactly like the read path. A touch is an access: it
// promotes like a hit.
func (kv *KV) TouchDigest(key []byte, id uint64, expireAt int64) bool {
	s := kv.b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, v := kv.lookup(s, id, key)
	if n == 0 {
		return false
	}
	v.P.e.expireAt = expireAt
	if expireAt > 0 {
		s.wheel.Schedule(n, expireAt)
	} else {
		s.wheel.Remove(n)
	}
	kv.b.touch(s, n, v)
	return true
}

// ExpireAtDigest reports key's absolute expiry deadline (0 = never) and
// whether the key is present and unexpired. It backs the gete command's
// extended VALUE header, which hot-key replication uses to forward TTLs.
// An absent key counts as a miss, since no AppendHit follows to count it;
// a present one is counted by the AppendHit that serves it.
func (kv *KV) ExpireAtDigest(key []byte, id uint64) (int64, bool) {
	s := kv.b.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, v := kv.lookup(s, id, key)
	if n == 0 {
		s.stats.misses.Add(1)
		return 0, false
	}
	return v.P.e.expireAt, true
}

// SetNow moves the TTL clock without running the wheel — a test hook for
// exercising the lazy-expiry path in isolation. AdvanceTTL both moves the
// clock and reclaims; production callers want that.
func (kv *KV) SetNow(now int64) { kv.nowSec.Store(now) }

// AdvanceTTL moves the TTL clock to now (unix seconds) and proactively
// reclaims every entry whose deadline has passed, returning how many were
// dropped. Calls are serialized; the StartExpiry ticker is the usual
// caller, but tests drive it directly with a synthetic clock. Each shard
// ticks its wheel and drops what fired in one exclusive section, so the
// per-shard pause is proportional to the due count.
func (kv *KV) AdvanceTTL(now int64) int {
	kv.ttlMu.Lock()
	defer kv.ttlMu.Unlock()
	if now > kv.nowSec.Load() {
		kv.nowSec.Store(now)
	}
	total := 0
	for i := range kv.b.shards {
		s := &kv.b.shards[i]
		s.mu.Lock()
		s.wheel.Advance(now, func(n int32) {
			// A slot's timer is armed exactly while its object has a
			// deadline (releasing the object disarms it), so n holds the
			// object whose deadline has come.
			id := s.X.Key(n)
			s.remove(n, s.X.Value(n))
			kv.b.rec.Record(obs.Event{Key: id, Kind: obs.EvExpire, Reason: obs.ReasonExpired})
			total++
		})
		s.mu.Unlock()
	}
	kv.expired.Add(int64(total))
	return total
}

// StartExpiry launches the background ticker that advances the TTL clock
// and wheel every interval (1s matches the wheel granularity). It returns
// a stop function that halts the ticker and waits for an in-flight sweep
// to finish; calling stop more than once is safe.
func (kv *KV) StartExpiry(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case tick := <-t.C:
				kv.AdvanceTTL(tick.Unix())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// Stats returns a point-in-time snapshot of the shards' counters — hits
// and misses as observed at the byte-value API, so a colliding digest or a
// lazily expired object counts as a miss — plus the wheel's reclaim count.
func (kv *KV) Stats() Snapshot {
	out := kv.b.Stats()
	out.Expired = kv.expired.Load()
	return out
}

// ShardStats returns the per-shard snapshots: occupancy, eviction balance
// and the hits and misses of the keys each shard owns.
func (kv *KV) ShardStats() []Snapshot { return kv.b.ShardStats() }

// Name identifies the eviction policy.
func (kv *KV) Name() string { return kv.b.name }
