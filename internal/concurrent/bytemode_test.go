package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/evict"
	"repro/internal/obs"
)

// What only a byte cap can express: mode selection at the New surface,
// one large insert displacing many small objects, and QDLP's size-aware
// admission filter. Assertions that hold in either unit run over both
// modes from concurrent_test.go's eachMode table.

// Capacity-mode selection and mutual exclusivity at the New surface.
func TestNewCapacityModes(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c, err := New(name, 0, WithMaxBytes(1<<20))
			if err != nil {
				t.Fatalf("WithMaxBytes: %v", err)
			}
			if st := c.Stats(); st.MaxBytes != 1<<20 {
				t.Errorf("MaxBytes = %d, want %d", st.MaxBytes, 1<<20)
			}
			if c.Capacity() != 0 {
				t.Errorf("byte-capped Capacity = %d, want 0", c.Capacity())
			}
			c, err = New(name, 0, WithMaxEntries(512))
			if err != nil {
				t.Fatalf("WithMaxEntries: %v", err)
			}
			if c.Capacity() != 512 {
				t.Errorf("WithMaxEntries Capacity = %d, want 512", c.Capacity())
			}
			if st := c.Stats(); st.MaxBytes != 0 {
				t.Errorf("entry-capped MaxBytes = %d, want 0", st.MaxBytes)
			}
			positional, err := New(name, 512)
			if err != nil {
				t.Fatalf("positional capacity: %v", err)
			}
			if positional.Capacity() != c.Capacity() {
				t.Errorf("positional %d != WithMaxEntries %d", positional.Capacity(), c.Capacity())
			}
			// The smallest entry cap QDLP accepts, two objects per shard:
			// unit-cost objects must never trip a size filter.
			tiny, err := New(name, 0, WithMaxEntries(2*defaultShards))
			if err != nil {
				t.Fatalf("WithMaxEntries(2 x shards): %v", err)
			}
			tiny.SetEvictHook(func(key uint64, r obs.Reason) {
				if r == obs.ReasonSizeAdmission {
					t.Errorf("entry-capped cache refused key %d by size", key)
				}
			})
			for k := uint64(0); k < 256; k++ {
				tiny.Set(k, 1<<40)
			}
			if tiny.Len() == 0 {
				t.Error("two-objects-per-shard cache admitted nothing")
			}

			for _, bad := range []struct {
				desc string
				cap  int
				opts []Option
			}{
				{"bytes+entries", 0, []Option{WithMaxBytes(1 << 20), WithMaxEntries(512)}},
				{"bytes+positional", 512, []Option{WithMaxBytes(1 << 20)}},
				{"entries+positional", 512, []Option{WithMaxEntries(512)}},
				{"no capacity", 0, nil},
				{"zero bytes", 0, []Option{WithMaxBytes(0)}},
				{"zero entries", 0, []Option{WithMaxEntries(0)}},
			} {
				if _, err := New(name, bad.cap, bad.opts...); err == nil {
					t.Errorf("%s did not error", bad.desc)
				}
			}
		})
	}
}

// One large insert must evict as many small victims as it takes, and the
// eviction hook must fire for each so a data plane can reclaim them.
// (QDLP is excluded: its admission filter ghosts the large object instead —
// covered by TestByteQDLPSizeAwareAdmission.)
func TestByteModeLargeInsertEvictsMany(t *testing.T) {
	const maxBytes = 4096
	for _, name := range []string{"lru", "clock", "sieve"} {
		c, err := New(name, 0, WithMaxBytes(maxBytes), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name(), func(t *testing.T) {
			evicted := 0
			c.SetEvictHook(func(uint64, obs.Reason) { evicted++ })
			for k := uint64(0); k < 16; k++ {
				c.Set(k, 256) // fills the budget exactly
			}
			before := c.Stats().UsedBytes
			c.Set(100, 1024) // needs at least four victims
			if evicted < 4 {
				t.Fatalf("evicted %d victims for a 1024-byte insert, want >= 4", evicted)
			}
			st := c.Stats()
			if st.UsedBytes > maxBytes {
				t.Fatalf("used %d > max %d after large insert", st.UsedBytes, maxBytes)
			}
			if before > maxBytes {
				t.Fatalf("used %d > max %d before large insert", before, maxBytes)
			}
		})
	}
}

// A bare byte-capped cache fed costs far below EntryOverhead runs out of
// index slots (sized for the cheapest object a KV stores) long before it
// runs out of bytes. It must then evict for slots, not overrun the index.
func TestByteModeTinyCostsEvictForSlots(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name, 0, WithMaxBytes(100*(EntryOverhead+1)), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name(), func(t *testing.T) {
			for k := uint64(0); k < 2000; k++ {
				c.Set(k, 1)
				if k%3 == 0 {
					c.Get(k) // some earn promotion, so QDLP's main region fills too
				}
			}
			st := c.Stats()
			slots := c.(interface{ shared() *base }).shared().shards[0].Slots()
			if st.Len == 0 || st.Len > slots || st.Evictions == 0 {
				t.Fatalf("Len %d with %d slots after 2000 one-byte sets, %d evictions", st.Len, slots, st.Evictions)
			}
			if st.UsedBytes != int64(st.Len) {
				t.Fatalf("UsedBytes %d for %d one-byte objects", st.UsedBytes, st.Len)
			}
		})
	}
}

// QDLP size-aware admission: a first touch costing more than probation
// goes straight to the main region rather than flushing probation, and is
// served on its first get; one costing more than the main region is
// refused, counted as an eviction for size, and holds no bytes.
func TestByteQDLPSizeAwareAdmission(t *testing.T) {
	// One shard, 10000 bytes: probation 1000, main 9000.
	c, err := New("qdlp", 0, WithMaxBytes(10000), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	var hookReasons []obs.Reason
	c.SetEvictHook(func(_ uint64, r obs.Reason) { hookReasons = append(hookReasons, r) })
	s := &c.(*base).shards[0]

	const big, huge, small = 1500, 9500, 200
	c.Set(1, big) // larger than probation: admitted to main
	if v, ok := c.Get(1); !ok || v != big {
		t.Fatalf("first touch larger than probation: Get = %d, %v", v, ok)
	}
	if n, v := s.resident(1); n == 0 || v.Where != evict.InMain {
		t.Fatal("first touch larger than probation is not in the main region")
	}
	c.Set(2, huge) // larger than main: refused, hook fires
	if _, ok := c.Get(2); ok {
		t.Fatal("first touch larger than the main region was admitted")
	}
	if len(hookReasons) != 1 || hookReasons[0] != obs.ReasonSizeAdmission {
		t.Fatalf("hook reasons = %v, want [size-admission]", hookReasons)
	}
	c.Set(3, small) // admitted to probation
	if n, v := s.resident(3); n == 0 || v.Where != evict.InProbation {
		t.Fatal("small first touch is not on probation")
	}
	if st := c.Stats(); st.UsedBytes != big+small || st.Len != 2 {
		t.Fatalf("used = %d bytes in %d objects, want %d in 2", st.UsedBytes, st.Len, big+small)
	}
}

// The ghost is an exact FIFO under a byte cap too. A key demoted, readmitted
// and demoted again is the ghost's newest entry, and is remembered for as
// many further demotions as the ghost holds (16 here: the main region is
// nearly empty, so the bound sits at its floor) — no earlier, which is what
// a queue that kept the first demotion's stale entry got wrong, and no
// later.
func TestByteQDLPGhostRemembersRedemotedKey(t *testing.T) {
	const x, cost, limit = 1, 100, 16
	for _, further := range []int{limit - 1, limit} {
		rec := obs.NewRecorder(1, 1024)
		// One shard, 10000 bytes: probation 1000 (ten objects), main 9000.
		c, err := New("qdlp", 0, WithMaxBytes(10000), WithShards(1), WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(1000)
		flood := func(n int) { // n first touches, each pushing one older object out of probation
			for i := 0; i < n; i++ {
				next++
				c.Set(next, cost)
			}
		}
		lastEvent := func() obs.EventKind {
			evs := rec.KeyEvents(x, 0)
			return evs[len(evs)-1].Kind
		}
		c.Set(x, cost)
		flood(10)
		if lastEvent() != obs.EvDemoteGhost {
			t.Fatalf("first demotion: key ended on %v", lastEvent())
		}
		c.Set(x, cost) // readmitted to main; the ghost forgets it
		if lastEvent() != obs.EvGhostReadmit {
			t.Fatalf("readmission: key ended on %v", lastEvent())
		}
		c.Delete(x) // out of main without a trace
		c.Set(x, cost)
		flood(10)
		if lastEvent() != obs.EvDemoteGhost {
			t.Fatalf("second demotion: key ended on %v", lastEvent())
		}
		flood(further)
		c.Set(x, cost)
		want := obs.EvGhostReadmit
		if further >= limit {
			want = obs.EvAdmit // forgotten: a first touch again
		}
		if got := lastEvent(); got != want {
			t.Errorf("after %d further demotions the key's Set recorded %v, want %v", further, got, want)
		}
	}
}

// The same admission rule observed end to end through the KV adapter: the
// object larger than probation is served on its first get, and the one
// larger than the main region is refused and its buffer freed.
func TestKVSizeAwareAdmission(t *testing.T) {
	inner, err := New("qdlp", 0, WithMaxBytes(10000), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	var hookReasons []obs.Reason
	inner.SetEvictHook(func(_ uint64, r obs.Reason) { hookReasons = append(hookReasons, r) })
	kv := NewKV(inner, 1)
	big, bigVal := []byte("big"), make([]byte, 1200) // cost 3+1200+64 = 1267 > 1000 of probation
	kv.Set(big, bigVal, 0)
	if v, _, _, ok := kv.Get(nil, big); !ok || len(v) != len(bigVal) {
		t.Fatalf("first store larger than probation not served: ok=%v len=%d", ok, len(v))
	}
	huge := []byte("huge")
	kv.Set(huge, make([]byte, 9000), 0) // cost 9068 > 9000 of main
	if _, _, _, ok := kv.Get(nil, huge); ok {
		t.Fatal("first store larger than the main region served")
	}
	if len(hookReasons) != 1 || hookReasons[0] != obs.ReasonSizeAdmission {
		t.Fatalf("hook reasons = %v, want [size-admission]", hookReasons)
	}
	if st := kv.Stats(); st.Len != 1 || st.ValueBytes != int64(len(bigVal)) || st.UsedBytes != EntryCost(len(big), len(bigVal)) {
		t.Fatalf("data plane kept the refused object: items=%d value bytes=%d used=%d", st.Len, st.ValueBytes, st.UsedBytes)
	}
	small := []byte("small")
	kv.Set(small, []byte("v"), 0)
	if _, _, _, ok := kv.Get(nil, small); !ok {
		t.Fatal("small first store not served")
	}
}

// KV over a byte-capped inner: the policy bounds the accounted footprint
// (key+value+EntryOverhead), so data-plane value bytes stay under the
// budget too, under mixed sizes and concurrency.
func TestKVByteModeBoundsBytes(t *testing.T) {
	const maxBytes = 1 << 16
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			inner, err := New(name, 0, WithMaxBytes(maxBytes), WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			kv := NewKV(inner, 4)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 3000; i++ {
						key := []byte(fmt.Sprintf("byte-key-%04d", rng.Intn(400)))
						id := Digest(key)
						if _, _, _, ok := kv.GetDigest(nil, key, id); !ok {
							kv.SetDigest(key, make([]byte, 16+rng.Intn(2048)), 0, id, 0)
						}
					}
				}(w)
			}
			wg.Wait()
			st := kv.Stats()
			if st.UsedBytes > st.MaxBytes {
				t.Fatalf("used %d > max %d", st.UsedBytes, st.MaxBytes)
			}
			if st.MaxBytes != maxBytes {
				t.Fatalf("MaxBytes = %d, want %d", st.MaxBytes, maxBytes)
			}
			if kv.Stats().ValueBytes > maxBytes {
				t.Fatalf("data-plane bytes %d exceed the byte budget %d", kv.Stats().ValueBytes, maxBytes)
			}
			if kv.Stats().ValueBytes <= 0 || st.Evictions == 0 {
				t.Fatalf("implausible end state: bytes=%d evictions=%d", kv.Stats().ValueBytes, st.Evictions)
			}
		})
	}
}

// The acceptance bar for the hot path: byte accounting plus scheduled TTL
// timers must not cost the read paths a single allocation.
func TestKVByteModeTTLZeroAllocs(t *testing.T) {
	inner, err := New("qdlp", 0, WithMaxBytes(1<<20), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 4)
	base := time.Now().Unix()
	kv.SetNow(base)
	for i := 0; i < 256; i++ {
		key := allocKey(i)
		// Every entry carries a far-future TTL, so every entry sits on a
		// shard wheel; a tick has run, so the wheel is active, not pristine.
		kv.SetDigest(key, []byte(fmt.Sprintf("value-%04d-xxxxxxxxxxxxxxxx", i)), uint32(i), Digest(key), base+3600)
	}
	kv.AdvanceTTL(base + 1)

	key := allocKey(7)
	id := Digest(key)
	dst := make([]byte, 0, 512)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := kv.GetDigest(dst[:0], key, id); !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("byte-mode GetDigest allocates %.1f/op, want 0", avg)
	}
	hdr := func(dst, key []byte, vlen int, flags uint32, cas uint64) []byte {
		return append(dst, key...)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, ok := kv.AppendHit(dst[:0], key, id, hdr); !ok {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("byte-mode AppendHit allocates %.1f/op, want 0", avg)
	}
	const batch = 16
	keys := make([][]byte, batch)
	ids := make([]uint64, batch)
	for i := range keys {
		keys[i] = allocKey(i * 3)
		ids[i] = Digest(keys[i])
	}
	out := make([]MultiHit, batch)
	mdst := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(500, func() {
		kv.GetMulti(mdst[:0], keys, ids, out)
	}); avg != 0 {
		t.Fatalf("byte-mode GetMulti allocates %.1f/op, want 0", avg)
	}
}
