package concurrent

// Shard topology, exposed so a serving layer can partition the KV's shards
// into per-core ownership sets. The shards themselves are
// unchanged — each is still guarded by its own RWMutex — but when every
// connection pinned to core c only touches shards owned by partition c,
// those locks are never contended by another core, so the lock's fast path
// (one uncontended CAS) is all the hit path ever pays. Keys outside a
// connection's partition fall back to the exact same code path; they just
// may contend, which is why the server counts them separately
// (cache_server_cross_core_ops_total) instead of forbidding them.

// NumDataShards returns how many shards the KV has: the policy's own (a
// power of two), since the bytes live in the policy's shards.
func (kv *KV) NumDataShards() int { return len(kv.b.shards) }

// DataShardIndex returns the index of the shard that owns digest id — the
// same mapping every KV operation uses internally, so a caller can group or
// partition keys without re-deriving the hash mix.
func (kv *KV) DataShardIndex(id uint64) int { return int(hash(id) & kv.b.mask) }

// PartitionShards splits shards data shards into parts contiguous
// partitions and returns the ownership table: owner[i] is the partition
// that owns shard i, always in [0, parts). Partitions are balanced to
// within one shard. parts > shards leaves the high partitions empty, which
// is legal (those cores serve only cross-partition traffic); parts <= 0 or
// shards <= 0 returns a single-partition table.
func PartitionShards(shards, parts int) []int {
	if shards <= 0 {
		return nil
	}
	owner := make([]int, shards)
	if parts <= 1 {
		return owner
	}
	for i := range owner {
		owner[i] = i * parts / shards
	}
	return owner
}
