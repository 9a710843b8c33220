// Package concurrent provides production-style thread-safe caches that
// exercise the code-path asymmetry behind the paper's throughput and
// scalability claims (§1–§3):
//
//   - LRU must perform pointer surgery on a doubly-linked list under an
//     exclusive lock on EVERY HIT (six pointer writes), so hits serialize.
//   - CLOCK (FIFO-Reinsertion) only sets a reference counter on a hit — a
//     single atomic store under a shared read lock; hits proceed in
//     parallel and writes are the only serialized operations.
//   - QD-LP-FIFO inherits CLOCK's hit path: at most one metadata update on
//     a cache hit and no exclusive locking for any read.
//
// All caches are sharded; the comparison keeps sharding identical so the
// measured difference is the per-hit metadata discipline, exactly the
// paper's argument.
//
// One structure. A shard (policy.go) is one sync.RWMutex over one
// slab.Index: an open-addressed table from key to slot, and a slab of slots
// threaded onto the policy's queues by int32 links. A slot carries the
// policy's metadata (value or cost, reference counter, which queue) and,
// when the cache is viewed through a KV (kv.go), a pointer to the object's
// bytes — so a key is probed once per operation, under one lock, and
// nothing is allocated to admit it. QDLP's ghost lives in the same index as
// its residents: quick demotion relinks a slot, readmission relinks it
// back, and neither touches the table. The four policies are four Set
// functions (lru.go, clock.go, sieve.go, qdlp.go) over that shard; Get,
// Delete and the accounting are written once, in policy.go.
//
// Lock order: a shard's mu is the only lock an operation takes, and no
// operation holds two shards' locks. What runs under the shared lock: the
// probe, the counter store of a lazy promotion, and a KV's key compare,
// expiry check and copy-out. Everything that links, unlinks, inserts,
// removes, re-accounts or recycles takes the exclusive lock; LRU's hit is
// among them, which is the paper's point.
package concurrent

import "repro/internal/obs"

// Cache is a fixed-capacity thread-safe key-value cache. Values are uint64
// payloads (simulation stand-ins for object data; a KV stores the object's
// accounted size here, which a byte-capped cache takes as its cost).
type Cache interface {
	// Get returns the cached value and whether it was present. Get is the
	// hit path whose cost the paper's scalability argument is about.
	Get(key uint64) (uint64, bool)
	// Set inserts or overwrites key, evicting as needed.
	Set(key, value uint64)
	// Delete removes key, reporting whether it was present. Deletions do
	// not count as evictions and do not fire the eviction hook.
	Delete(key uint64) bool
	// Len returns the total number of cached objects.
	Len() int
	// Capacity returns the configured capacity in objects, 0 for a
	// byte-capped cache (whose budget Stats reports as MaxBytes).
	Capacity() int
	// Stats returns a point-in-time snapshot of the cache-wide operation
	// counters and occupancy. It takes each shard's shared lock in turn,
	// as briefly as a hit does.
	Stats() Snapshot
	// ShardStats returns one snapshot per shard, in shard order — the
	// per-shard view the metrics layer exports for balance/occupancy
	// dashboards.
	ShardStats() []Snapshot
	// SetEvictHook registers fn to be called with the key and reason of
	// every object evicted for capacity or refused admission
	// (ReasonProbationOverflow, ReasonMainClock, ReasonCapacity, or
	// ReasonSizeAdmission — never deletes). It must be
	// called before the cache is shared between goroutines. fn runs while
	// the victim's shard lock is held and must not call back into the
	// cache.
	SetEvictHook(fn func(key uint64, reason obs.Reason))
	// SetRecorder attaches a lifecycle-event recorder (nil disables). Like
	// SetEvictHook it must be called before the cache is shared. Events are
	// emitted only on paths that already hold the shard's exclusive lock
	// (admit, eviction-time scans); the shared-lock hit path never records,
	// so attaching a recorder does not change the paper's hit-path cost.
	SetRecorder(rec *obs.Recorder)
	// Name identifies the implementation.
	Name() string
}

// hash mixes keys before shard selection so adversarial key patterns still
// spread across shards.
func hash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardCount returns a power-of-two shard count suited to the capacity.
func shardCount(requested int) int {
	if requested <= 0 {
		requested = 16
	}
	n := 1
	for n < requested {
		n <<= 1
	}
	return n
}
