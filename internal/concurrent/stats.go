package concurrent

import "sync/atomic"

// Snapshot is a point-in-time view of a cache's operation counters and
// occupancy. Counters are monotonic over the cache's lifetime. A shard's
// fields are read in one shared-lock section, so they agree with each other
// except for Hits and Misses, which are bumped outside the lock; a
// cache-wide snapshot sums shards read one after another.
type Snapshot struct {
	// Hits and Misses partition Get calls.
	Hits   int64
	Misses int64
	// Sets counts Set calls (inserts and overwrites).
	Sets int64
	// Deletes counts Delete calls that found and removed the key.
	Deletes int64
	// Evictions counts objects evicted to make room (not overwrites or
	// Deletes).
	Evictions int64
	// Expired counts objects the timer wheel reclaimed proactively
	// (client-driven expiry via ExpireDigest counts into Deletes, as
	// before). A bare Cache leaves it zero; the KV owns TTLs and
	// fills it in.
	Expired int64
	// Len is the number of cached objects; Capacity the configured bound
	// in objects (0 for byte-capped caches).
	Len      int
	Capacity int
	// UsedBytes is the accounted cost of the cached objects
	// (len(key)+len(value)+EntryOverhead per object, as fed to Set by the
	// KV; a simulation driving a policy directly with non-size
	// values makes this a plain sum of those values). MaxBytes is the
	// byte budget, 0 for entry-capped caches.
	UsedBytes int64
	MaxBytes  int64
	// ValueBytes is the raw value payload of the cached objects (the KV's;
	// a bare Cache leaves it zero).
	ValueBytes int64
	// BufferBytes is the capacity of the buffers holding the cached
	// objects' keys and values: what ValueBytes really occupies, keys and
	// size-class slack included (see pool.go).
	BufferBytes int64
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any Get.
func (s Snapshot) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// opStats is the per-shard counter block embedded in every shard. hits and
// misses are atomics so the Get path, which may hold only the shared lock,
// can bump them; sharding keeps the cacheline traffic confined to the shard
// the operation already touched. Everything else changes only under the
// shard's exclusive lock and is a plain field of the state that lock guards:
// an evicting Set updates four of them, and as atomics they cost it more
// than the probe did.
type opStats struct {
	hits   atomic.Int64
	misses atomic.Int64

	sets      int64
	deletes   int64
	evictions int64
	// usedBytes is the shard's accounted byte occupancy (the sum of the
	// values currently stored, which a KV sets to object costs).
	usedBytes int64
}

// snapshot renders the counter block plus the caller-supplied occupancy;
// the caller holds the shard's lock (either mode) and fills in the budget.
func (o *opStats) snapshot(length int) Snapshot {
	return Snapshot{
		Hits:      o.hits.Load(),
		Misses:    o.misses.Load(),
		Sets:      o.sets,
		Deletes:   o.deletes,
		Evictions: o.evictions,
		Len:       length,
		UsedBytes: o.usedBytes,
	}
}

// sumSnapshots aggregates per-shard snapshots into a cache-wide one.
func sumSnapshots(shards []Snapshot) Snapshot {
	var out Snapshot
	for _, s := range shards {
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Sets += s.Sets
		out.Deletes += s.Deletes
		out.Evictions += s.Evictions
		out.Expired += s.Expired
		out.Len += s.Len
		out.Capacity += s.Capacity
		out.UsedBytes += s.UsedBytes
		out.MaxBytes += s.MaxBytes
		out.ValueBytes += s.ValueBytes
		out.BufferBytes += s.BufferBytes
	}
	return out
}
