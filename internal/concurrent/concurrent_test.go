package concurrent

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/evict"
	"repro/internal/obs"
)

func caches(t *testing.T, capacity, shards int) []Cache {
	t.Helper()
	out := make([]Cache, 0, len(Names()))
	for _, name := range Names() {
		c, err := New(name, capacity, WithShards(shards))
		if err != nil {
			t.Fatalf("New(%q, %d): %v", name, capacity, err)
		}
		out = append(out, c)
	}
	return out
}

// testCost is what one object is budgeted at when a mode-independent test
// sizes a byte cap to hold a given number of objects.
const testCost = 256

// eachMode runs fn once per capacity mode and policy, each cache sized to
// hold about `objects` objects: one implementation serves both modes, so
// every assertion that does not name a unit must hold under both.
func eachMode(t *testing.T, objects, shards int, fn func(t *testing.T, c Cache)) {
	t.Helper()
	for _, mode := range []struct {
		name string
		opt  Option
	}{
		{"entries", WithMaxEntries(objects)},
		{"bytes", WithMaxBytes(int64(objects) * testCost)},
	} {
		for _, name := range Names() {
			c, err := New(name, 0, mode.opt, WithShards(shards))
			if err != nil {
				t.Fatalf("New(%q, %s): %v", name, mode.name, err)
			}
			t.Run(mode.name+"/"+name, func(t *testing.T) { fn(t, c) })
		}
	}
}

// withinBudget asserts the capacity invariant in whichever unit the cache
// is capped in, in aggregate and per shard.
func withinBudget(t *testing.T, c Cache) {
	t.Helper()
	for i, st := range append(c.ShardStats(), c.Stats()) {
		switch {
		case (st.Capacity == 0) == (st.MaxBytes == 0):
			t.Fatalf("snapshot %d reports both or neither budget: %+v", i, st)
		case st.Capacity > 0 && st.Len > st.Capacity:
			t.Fatalf("snapshot %d: Len %d > Capacity %d", i, st.Len, st.Capacity)
		case st.MaxBytes > 0 && st.UsedBytes > st.MaxBytes:
			t.Fatalf("snapshot %d: used %d > max %d bytes", i, st.UsedBytes, st.MaxBytes)
		case st.UsedBytes < 0:
			t.Fatalf("snapshot %d: negative used bytes %d", i, st.UsedBytes)
		}
	}
}

// Shards sit back to back in one slice; whole cache lines each keep one
// shard's lock word and counters off its neighbour's lines.
func TestShardPadding(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size%64 != 0 {
		t.Fatalf("shard is %d bytes, not a multiple of the 64-byte cache line: adjust its pad", size)
	}
}

// Every key a shard remembers is a slot, ghosts included, and a KV object's
// header lives inline in it: a slot that grows past 80 bytes makes every
// ghost and every bare-Cache key pay for it.
func TestSlotSize(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 80 {
		t.Fatalf("slot is %d bytes, want at most 80", size)
	}
}

func TestBasicGetSet(t *testing.T) {
	eachMode(t, 1024, 4, func(t *testing.T, c Cache) {
		if _, ok := c.Get(1); ok {
			t.Fatal("hit on empty cache")
		}
		c.Set(1, 100)
		v, ok := c.Get(1)
		if !ok || v != 100 {
			t.Fatalf("Get(1) = %d,%v", v, ok)
		}
		c.Set(1, 200) // overwrite
		if v, _ := c.Get(1); v != 200 {
			t.Fatalf("overwrite lost: %d", v)
		}
		if c.Len() != 1 {
			t.Fatalf("Len = %d", c.Len())
		}
		if used := c.Stats().UsedBytes; used != 200 {
			t.Fatalf("UsedBytes = %d, want the stored value 200", used)
		}
	})
}

func TestCapacityBound(t *testing.T) {
	eachMode(t, 256, 4, func(t *testing.T, c Cache) {
		for k := uint64(0); k < 10000; k++ {
			c.Set(k, k)
		}
		withinBudget(t, c)
		if c.Len() == 0 {
			t.Fatal("cache empty after fills")
		}
	})
}

// The budget holds after every kind of operation — insert, overwrite, get,
// delete — under a seeded workload whose values span two orders of
// magnitude, some larger than a whole shard's byte budget (refused there,
// an ordinary payload under an entry cap).
func TestBudgetNeverExceeded(t *testing.T) {
	eachMode(t, 256, 4, func(t *testing.T, c Cache) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 4000; i++ {
			key := uint64(rng.Intn(600))
			if _, ok := c.Get(key); !ok {
				value := uint64(EntryOverhead + rng.Intn(4096))
				if i%211 == 0 {
					value = 256 * testCost
				}
				c.Set(key, value)
			}
			if i%64 == 0 {
				c.Delete(uint64(rng.Intn(600)))
				withinBudget(t, c)
			}
		}
		withinBudget(t, c)
		if c.Stats().Evictions == 0 {
			t.Error("no evictions under pressure")
		}
	})
}

func TestBadCapacityRejected(t *testing.T) {
	for _, name := range Names() {
		if _, err := New(name, 2, WithShards(16)); err == nil {
			t.Errorf("capacity < shards accepted (%s)", name)
		}
		if _, err := New(name, 0, WithMaxBytes(16*minShardBytes-1), WithShards(16)); err == nil {
			t.Errorf("byte budget below the per-shard minimum accepted (%s)", name)
		}
	}
}

// SIEVE keeps visited keys across a sweep and retains the hand position.
func TestSieveVisitedSurvives(t *testing.T) {
	c, err := New("sieve", 4, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		c.Set(k, k)
	}
	c.Get(1)
	c.Get(2)
	c.Set(5, 5) // sweep: clears 1,2 visited bits, evicts 3
	c.Set(6, 6) // continues from 4: evicted
	for _, k := range []uint64{1, 2, 5, 6} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	for _, k := range []uint64{3, 4} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %d should have been evicted", k)
		}
	}
}

// Hammer each cache from many goroutines; run with -race in CI. Values
// always equal keys, so any cross-key corruption is detected.
func TestConcurrentIntegrity(t *testing.T) {
	eachMode(t, 2048, 8, func(t *testing.T, c Cache) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20000; i++ {
					k := uint64((g*7 + i*13) % 4096)
					if v, ok := c.Get(k); ok {
						if v != k {
							t.Errorf("corruption: Get(%d) = %d", k, v)
							return
						}
					} else {
						c.Set(k, k)
					}
				}
			}(g)
		}
		wg.Wait()
		withinBudget(t, c)
	})
}

// The QDLP ghost path: a key seen, demoted, and seen again lands in the
// main region. The smallest legal shards (two objects: probation 1, main
// 1) are the cost-1 edge of size-aware admission — a threshold taken as a
// fraction of that probation budget would round to zero and ghost every
// first touch, so the demotion below must be a probation overflow.
func TestQDLPGhostReadmission(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{64, 1}, // small 6, main 58
		{2, 1},
		{8, 4},
	} {
		cache, err := New("qdlp", tc.capacity, WithShards(tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		c := cache.(*base)
		var reason obs.Reason
		c.SetEvictHook(func(key uint64, r obs.Reason) {
			if key == 1 {
				reason = r
			}
		})
		c.Set(1, 1)
		if c.Len() != 1 {
			t.Fatalf("capacity %d: first touch not admitted (hook reason %v)", tc.capacity, reason)
		}
		// Push key 1 through the small FIFO without accessing it.
		for k := uint64(2); reason == obs.ReasonNone && k < 1000; k++ {
			c.Set(k, k)
		}
		if reason != obs.ReasonProbationOverflow {
			t.Fatalf("capacity %d: key 1 left with reason %v, want probation overflow", tc.capacity, reason)
		}
		if _, ok := c.Get(1); ok {
			t.Fatal("key 1 should have been demoted")
		}
		c.Set(1, 11)
		if n, v := c.shard(1).resident(1); n == 0 || v.Where != evict.InMain {
			t.Fatalf("capacity %d: ghost readmission failed: resident=%v", tc.capacity, n != 0)
		}
		if v, ok := c.Get(1); !ok || v != 11 {
			t.Fatalf("Get(1) = %d,%v after readmission", v, ok)
		}
	}
}

// CLOCK reinsertion in the concurrent cache: a hot key survives a stream
// of cold inserts.
func TestClockKeepsHotKey(t *testing.T) {
	c, err := New("clock", 64, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Set(1, 1)
	for i := 0; i < 4; i++ {
		c.Get(1)
	}
	for k := uint64(100); k < 160; k++ { // one full sweep of cold keys
		c.Set(k, k)
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("hot key evicted within its frequency budget")
	}
}

func TestMeasureThroughput(t *testing.T) {
	c, err := New("qdlp", 4096, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	res := MeasureThroughput(c, 4, 80000, 8192, 1)
	if res.Ops != 80000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.HitRatio() <= 0 || res.HitRatio() >= 1 {
		t.Fatalf("hit ratio %v", res.HitRatio())
	}
	if res.OpsPerSecond() <= 0 {
		t.Fatal("rate not positive")
	}
}

// The remainder of a non-dividing op count is distributed, not dropped:
// the streams sum exactly to the requested total.
func TestZipfStreamsExactTotal(t *testing.T) {
	for _, tc := range []struct{ workers, total int }{
		{1, 100}, {3, 100}, {7, 100}, {8, 100}, {7, 5},
	} {
		streams := ZipfStreams(tc.workers, tc.total, 512, 1)
		sum := 0
		for _, s := range streams {
			sum += len(s)
		}
		if sum != tc.total {
			t.Errorf("workers=%d total=%d: streams sum to %d", tc.workers, tc.total, sum)
		}
	}
	c, err := New("qdlp", 256, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	// 100000 does not divide by 7: the reported Ops must still be exact.
	if res := MeasureThroughput(c, 7, 100000, 4096, 1); res.Ops != 100000 {
		t.Fatalf("ops = %d, want 100000", res.Ops)
	}
}

// Regression for the old ceil-division split: the per-shard budgets must
// sum to the configured value exactly (100 objects over 16 shards used to
// yield 112), in either unit, with no shard left empty.
func TestSplitCapacityExact(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{100, 16}, {100, 7}, {1000, 13}, {64, 1}, {4096, 16}, {65, 32},
	} {
		eachMode(t, tc.capacity, tc.shards, func(t *testing.T, c Cache) {
			want := Snapshot{Capacity: tc.capacity}
			if c.Capacity() == 0 {
				want = Snapshot{MaxBytes: int64(tc.capacity) * testCost}
			}
			if sum := sumSnapshots(c.ShardStats()); sum != want || c.Capacity() != want.Capacity {
				t.Errorf("budget %d over %d shards: shards sum to %+v, Capacity()=%d",
					tc.capacity, tc.shards, sum, c.Capacity())
			}
			for i, st := range c.ShardStats() {
				if st.Capacity+int(st.MaxBytes) < 1 {
					t.Errorf("shard %d has no budget", i)
				}
			}
		})
	}
}

func TestDelete(t *testing.T) {
	eachMode(t, 1024, 4, func(t *testing.T, c Cache) {
		if c.Delete(1) {
			t.Fatal("delete on empty cache reported true")
		}
		c.Set(1, 10)
		c.Set(2, 20)
		if !c.Delete(1) {
			t.Fatal("delete of present key reported false")
		}
		if _, ok := c.Get(1); ok {
			t.Fatal("deleted key still readable")
		}
		if v, ok := c.Get(2); !ok || v != 20 {
			t.Fatalf("unrelated key damaged: %d,%v", v, ok)
		}
		if c.Len() != 1 {
			t.Fatalf("Len = %d after delete", c.Len())
		}
		if c.Delete(1) {
			t.Fatal("second delete reported true")
		}
		// The freed room is reusable.
		c.Set(1, 11)
		if v, ok := c.Get(1); !ok || v != 11 {
			t.Fatalf("reinsert after delete: %d,%v", v, ok)
		}
		if st := c.Stats(); st.Evictions != 0 || st.Deletes != 1 || st.UsedBytes != 31 {
			t.Fatalf("after delete + reinsert: %+v", st)
		}
	})
}

// Deleting from the middle of QDLP's probationary FIFO (a tombstone in the
// retired ring, a plain unlink now) must leave the queue consistent through
// subsequent fills and demotions, and must free its room at once.
func TestQDLPDeleteTombstone(t *testing.T) {
	c, err := New("qdlp", 64, WithShards(1)) // one shard: small 6, main 58
	if err != nil {
		t.Fatal(err)
	}
	evicted := 0
	c.SetEvictHook(func(uint64, obs.Reason) { evicted++ })
	for k := uint64(1); k <= 6; k++ {
		c.Set(k, k)
	}
	if !c.Delete(3) {
		t.Fatal("delete failed")
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Set(7, 7)
	if evicted != 0 || c.Len() != 6 {
		t.Fatalf("insert into the freed probation room evicted %d, Len %d", evicted, c.Len())
	}
	// Push the whole queue through: the deleted key must stay gone.
	for k := uint64(10); k < 30; k++ {
		c.Set(k, k)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("deleted key resurrected")
	}
	withinBudget(t, c)
}

func TestEvictionCountAndHook(t *testing.T) {
	eachMode(t, 64, 1, func(t *testing.T, c Cache) {
		var hooked []uint64
		c.SetEvictHook(func(key uint64, reason obs.Reason) {
			if reason == obs.ReasonNone {
				t.Errorf("evict hook for key %d carried no reason", key)
			}
			if reason == obs.ReasonSizeAdmission && c.Capacity() > 0 {
				t.Errorf("entry-capped cache refused key %d by size", key)
			}
			hooked = append(hooked, key)
		})
		for k := uint64(0); k < 200; k++ {
			c.Set(k, k)
		}
		ev := c.Stats().Evictions
		if ev == 0 {
			t.Fatal("no evictions counted after overfilling")
		}
		if int64(len(hooked)) != ev {
			t.Fatalf("hook fired %d times, counter says %d", len(hooked), ev)
		}
		// Every hooked key must actually be gone.
		for _, k := range hooked {
			if _, ok := c.Get(k); ok {
				t.Fatalf("hooked key %d still cached", k)
			}
		}
		// Conservation: inserts == live + evicted.
		if int64(c.Len())+ev != 200 {
			t.Fatalf("len %d + evictions %d != 200 inserts", c.Len(), ev)
		}
	})
}
