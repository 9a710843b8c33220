package concurrent

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// Allocation guards for the KV hot path: regressions fail here instead of
// surfacing in production heap profiles. Sizes are small enough to run
// under -short; AllocsPerRun already warms up before measuring, which also
// primes the buffer pools.

func allocKV(t testing.TB) *KV {
	t.Helper()
	inner, err := New("clock", 4096, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 4)
	for i := 0; i < 256; i++ {
		kv.Set(allocKey(i), []byte(fmt.Sprintf("value-%04d-xxxxxxxxxxxxxxxx", i)), uint32(i))
	}
	return kv
}

func allocKey(i int) []byte { return []byte(fmt.Sprintf("alloc-key-%04d", i)) }

func TestKVGetZeroAllocs(t *testing.T) {
	kv := allocKV(t)
	key := allocKey(7)
	id := Digest(key)
	dst := make([]byte, 0, 256)
	if avg := testing.AllocsPerRun(1000, func() {
		_, _, _, ok := kv.GetDigest(dst[:0], key, id)
		if !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("KV.GetDigest allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		_, _, _, ok := kv.Get(dst[:0], key)
		if !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("KV.Get allocates %.1f/op, want 0", avg)
	}
}

func TestKVAppendHitZeroAllocs(t *testing.T) {
	kv := allocKV(t)
	key := allocKey(9)
	id := Digest(key)
	dst := make([]byte, 0, 512)
	hdr := func(dst, key []byte, vlen int, flags uint32, cas uint64) []byte {
		return append(dst, key...)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		_, _, ok := kv.AppendHit(dst[:0], key, id, hdr)
		if !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("KV.AppendHit allocates %.1f/op, want 0", avg)
	}
}

func TestKVGetMultiZeroAllocs(t *testing.T) {
	kv := allocKV(t)
	const batch = 16
	keys := make([][]byte, batch)
	ids := make([]uint64, batch)
	for i := range keys {
		keys[i] = allocKey(i * 3)
		ids[i] = Digest(keys[i])
	}
	out := make([]MultiHit, batch)
	dst := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(500, func() {
		kv.GetMulti(dst[:0], keys, ids, out)
	}); avg != 0 {
		t.Fatalf("KV.GetMulti allocates %.1f/op, want 0", avg)
	}
}

// A miss-ratio key sampler at rate 1 (every get staged into a ring) must
// keep the read path allocation-free: the offer is one hash, one compare,
// one atomic add, and three atomic stores into preallocated slots.
func TestKVGetZeroAllocsWithSampler(t *testing.T) {
	kv := allocKV(t)
	kv.SetSampler(obs.NewKeySampler(1.0, 4, 1024))
	key := allocKey(7)
	id := Digest(key)
	dst := make([]byte, 0, 256)
	if avg := testing.AllocsPerRun(1000, func() {
		_, _, _, ok := kv.GetDigest(dst[:0], key, id)
		if !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("KV.GetDigest with sampler allocates %.1f/op, want 0", avg)
	}
	hdr := func(dst, key []byte, vlen int, flags uint32, cas uint64) []byte {
		return append(dst, key...)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		_, _, ok := kv.AppendHit(dst[:0], key, id, hdr)
		if !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("KV.AppendHit with sampler allocates %.1f/op, want 0", avg)
	}
}

// Set overwrites recycle the previous entry's buffer, so steady-state
// writes stay within one pooled acquisition; the budget of 1 absorbs
// occasional pool refills after a GC clears the per-P caches.
func TestKVSetAtMostOneAlloc(t *testing.T) {
	kv := allocKV(t)
	key := allocKey(11)
	id := Digest(key)
	value := []byte("steady-state-overwrite-value-0123456789")
	if avg := testing.AllocsPerRun(1000, func() {
		kv.SetDigest(key, value, 3, id, 0)
	}); avg > 1 {
		t.Fatalf("KV.SetDigest allocates %.2f/op, want <= 1", avg)
	}
}

// An evicting set at a full byte-capped store allocates nothing, for every
// policy: the key takes a free slab slot instead of a new node, and the
// object takes the buffer its victim just returned to the pools. (Two planes kept a map and a list node per key: one allocation.)
func TestKVSetZeroAllocsSteadyState(t *testing.T) {
	for _, name := range Names() {
		inner, err := New(name, 0, WithMaxBytes(64<<10), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		kv := NewKV(inner, 1)
		value := make([]byte, 100)
		keys := make([][]byte, 4096)
		ids := make([]uint64, len(keys))
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("churn-key-%05d", i))
			ids[i] = Digest(keys[i])
		}
		next := 0
		set := func() {
			kv.SetDigest(keys[next], value, 0, ids[next], 0)
			next = (next + 1) % len(keys)
		}
		for i := 0; i < 2048; i++ { // fill several times over; the slab reaches its final size
			set()
		}
		before := kv.Stats().Evictions
		if avg := testing.AllocsPerRun(1000, set); avg != 0 {
			t.Errorf("%s: an evicting SetDigest allocates %.2f/op, want 0", name, avg)
		}
		if got := kv.Stats().Evictions - before; got < 1000 {
			t.Errorf("%s: only %d of 1001 measured sets evicted", name, got)
		}
	}
}

// BenchmarkGetMulti measures the shard-batched multi-get against the same
// 16-key pipelined batch issued as per-key lookups: batching takes each
// data shard's read lock once per batch (and one counter update per shard)
// instead of per key.
func BenchmarkGetMulti(b *testing.B) {
	inner, err := New("clock", 4096, WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	kv := NewKV(inner, 4)
	const batch = 16
	keys := make([][]byte, batch)
	ids := make([]uint64, batch)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("pipeline-key-%04d", i))
		ids[i] = Digest(keys[i])
		kv.Set(keys[i], []byte(fmt.Sprintf("pipeline-value-%04d-xxxxxxxx", i)), 0)
	}
	dst := make([]byte, 0, 4096)
	b.Run("looped-get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range keys {
				if _, _, _, ok := kv.GetDigest(dst[:0], keys[j], ids[j]); !ok {
					b.Fatal("miss")
				}
			}
		}
	})
	out := make([]MultiHit, batch)
	b.Run("shard-batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kv.GetMulti(dst[:0], keys, ids, out)
		}
	})
}
