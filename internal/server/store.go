package server

import "repro/internal/concurrent"

// Store is the data plane the server serves: the digest-threaded byte-value
// cache surface of concurrent.KV. It is an interface so the server's fault
// isolation is testable — a wrapper store that panics or misbehaves must
// cost exactly one connection, and only a seam here can prove that.
// *concurrent.KV is the production implementation; embed it in a wrapper to
// override single methods.
type Store interface {
	// AppendHit is the zero-copy single-key hit path (see KV.AppendHit).
	AppendHit(dst, key []byte, id uint64, hdr concurrent.HitHeaderFunc) (out []byte, valueLen int, ok bool)
	// GetMulti is the shard-batched multi-key lookup (see KV.GetMulti).
	GetMulti(dst []byte, keys [][]byte, ids []uint64, out []concurrent.MultiHit) []byte
	// SetDigest stores value under key with an absolute expiry deadline in
	// unix seconds (0 = never), returning the new cas token.
	SetDigest(key, value []byte, flags uint32, id uint64, expireAt int64) uint64
	// DeleteDigest removes key, reporting whether it was present.
	DeleteDigest(key []byte, id uint64) bool
	// ExpireDigest drops key, surfacing as an expiry in the event stream.
	ExpireDigest(key []byte, id uint64) bool
	// TouchDigest updates key's expiry deadline in place (0 = never),
	// reporting whether the key was present and unexpired.
	TouchDigest(key []byte, id uint64, expireAt int64) bool
	// ExpireAtDigest reports key's absolute expiry deadline (0 = never)
	// and whether the key is present and unexpired — the TTL read behind
	// the gete command, which replication uses to forward owner TTLs.
	ExpireAtDigest(key []byte, id uint64) (int64, bool)

	// Stats is the one source of every store number the server exposes:
	// hits and misses (one per looked-up key), occupancy (Len, ValueBytes,
	// UsedBytes) and budget (Capacity, MaxBytes). ShardStats is per shard,
	// empty for a store without local shards.
	Stats() concurrent.Snapshot
	ShardStats() []concurrent.Snapshot
	Name() string
}

// The production store satisfies the seam.
var _ Store = (*concurrent.KV)(nil)
