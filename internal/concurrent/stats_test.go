package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Single-threaded counter accounting: every operation lands in exactly one
// Snapshot field and the aggregate matches what was issued.
func TestStatsAccounting(t *testing.T) {
	for _, c := range caches(t, 64, 4) {
		t.Run(c.Name(), func(t *testing.T) {
			for k := uint64(0); k < 100; k++ {
				c.Set(k, k) // overfills: some evict
			}
			hits, misses := 0, 0
			for k := uint64(0); k < 100; k++ {
				if _, ok := c.Get(k); ok {
					hits++
				} else {
					misses++
				}
			}
			deleted := 0
			for k := uint64(0); k < 10; k++ {
				if c.Delete(k) {
					deleted++
				}
			}
			st := c.Stats()
			if st.Sets != 100 {
				t.Errorf("Sets = %d, want 100", st.Sets)
			}
			if st.Hits != int64(hits) || st.Misses != int64(misses) {
				t.Errorf("Hits/Misses = %d/%d, want %d/%d", st.Hits, st.Misses, hits, misses)
			}
			if st.Deletes != int64(deleted) {
				t.Errorf("Deletes = %d, want %d", st.Deletes, deleted)
			}
			if st.Evictions == 0 {
				t.Error("no evictions counted after overfilling")
			}
			if st.Len != c.Len() || st.Capacity != c.Capacity() {
				t.Errorf("Len/Capacity = %d/%d, want %d/%d", st.Len, st.Capacity, c.Len(), c.Capacity())
			}
			if got := st.HitRatio(); got != float64(hits)/float64(hits+misses) {
				t.Errorf("HitRatio = %v", got)
			}

			shards := c.ShardStats()
			if sum := sumSnapshots(shards); sum != st {
				t.Errorf("ShardStats sum %+v != Stats %+v", sum, st)
			}
		})
	}
}

// Per-shard capacities must partition the configured total, for every
// policy (QDLP rounds small/main split per shard but never changes the
// shard's total).
func TestShardStatsCapacityPartition(t *testing.T) {
	for _, c := range caches(t, 1000, 8) {
		t.Run(c.Name(), func(t *testing.T) {
			total := 0
			for _, s := range c.ShardStats() {
				total += s.Capacity
			}
			if total != c.Capacity() {
				t.Errorf("per-shard capacities sum to %d, want %d", total, c.Capacity())
			}
		})
	}
}

// KV-level stats: hits/misses are observed at the byte-value API (full-key
// comparison), sets and deletes at the KV entry points, evictions from the
// policy plane.
func TestKVStats(t *testing.T) {
	for _, kv := range kvCaches(t, 64, 2) {
		t.Run(kv.Name(), func(t *testing.T) {
			kv.Set([]byte("a"), []byte("va"), 0)
			kv.Set([]byte("b"), []byte("vb"), 0)
			if _, _, _, ok := kv.Get(nil, []byte("a")); !ok {
				t.Fatal("get a missed")
			}
			if _, _, _, ok := kv.Get(nil, []byte("nope")); ok {
				t.Fatal("get nope hit")
			}
			if !kv.Delete([]byte("b")) {
				t.Fatal("delete b missed")
			}
			kv.Delete([]byte("b")) // second delete: not counted

			st := kv.Stats()
			// Only "a"/"va" survives the delete; entry-capped policies still
			// account its cost informationally.
			want := Snapshot{Hits: 1, Misses: 1, Sets: 2, Deletes: 1,
				Len: kv.b.Len(), Capacity: kv.b.Capacity(), ValueBytes: int64(len("va")),
				UsedBytes: EntryCost(len("a"), len("va"))}
			if st != want {
				t.Errorf("Stats = %+v, want %+v", st, want)
			}
			if len(kv.ShardStats()) == 0 {
				t.Error("no shard stats")
			}
		})
	}
}

// Under a KV the shards see every get, so their per-shard snapshots carry
// the misses as well as the hits (a policy mirrored beside a separate byte
// store only ever saw the hits), and every KV.Stats counter equals a tally
// the test keeps: hits and misses per shard, sets, wheel expiries, and
// evictions counted from the lifecycle events.
func TestKVShardStatsTally(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			rec := obs.NewRecorder(1, 1<<16)
			inner, err := New(name, 64, WithShards(4), WithRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			kv := NewKV(inner, 4)
			now := time.Now().Unix() + 1
			kv.AdvanceTTL(now)
			hits, misses := make([]int64, len(kv.b.shards)), make([]int64, len(kv.b.shards))
			var sets, expired int64
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 5000; i++ {
				key := []byte(fmt.Sprintf("tally-%03d", rng.Intn(200)))
				id := Digest(key)
				if _, _, _, ok := kv.GetDigest(nil, key, id); ok {
					hits[hash(id)&kv.b.mask]++
				} else {
					misses[hash(id)&kv.b.mask]++
					var at int64
					if i%5 == 0 {
						at = now + 1
					}
					kv.SetDigest(key, []byte("v"), 0, id, at)
					sets++
				}
				if i%500 == 499 {
					now++
					expired += int64(kv.AdvanceTTL(now))
				}
			}
			var evictions int64
			for _, ev := range rec.Snapshot(0) {
				if ev.Kind == obs.EvEvict || ev.Kind == obs.EvDemoteGhost {
					evictions++
				}
			}
			if rec.Dropped() != 0 {
				t.Fatalf("event ring wrapped: %d dropped", rec.Dropped())
			}
			shards := kv.ShardStats()
			var want Snapshot
			for i, st := range shards {
				if st.Hits != hits[i] || st.Misses != misses[i] {
					t.Errorf("shard %d: hits/misses %d/%d, tallied %d/%d", i, st.Hits, st.Misses, hits[i], misses[i])
				}
				if misses[i] == 0 {
					t.Errorf("shard %d saw no miss: the tally proves nothing", i)
				}
				want.Hits += hits[i]
				want.Misses += misses[i]
			}
			st := kv.Stats()
			if st.Hits != want.Hits || st.Misses != want.Misses || st.Sets != sets || st.Evictions != evictions || st.Expired != expired {
				t.Errorf("Stats %+v; tallied hits %d misses %d sets %d evictions %d expired %d",
					st, want.Hits, want.Misses, sets, evictions, expired)
			}
			if evictions == 0 || expired == 0 {
				t.Errorf("the stream never evicted (%d) or expired (%d)", evictions, expired)
			}
			sum := sumSnapshots(shards)
			sum.Expired = st.Expired
			if sum != st {
				t.Errorf("ShardStats sum %+v != Stats %+v", sum, st)
			}
		})
	}
}

// Scraping Stats and ShardStats while the cache is hammered must be
// race-free (tier1 runs this package under -race) and the final counters
// must balance exactly once the writers stop.
func TestStatsConcurrentScrape(t *testing.T) {
	const (
		workers   = 4
		perWorker = 20000
		capacity  = 1 << 10
		keySpace  = 1 << 12
	)
	for _, c := range caches(t, capacity, 4) {
		t.Run(c.Name(), func(t *testing.T) {
			stop := make(chan struct{})
			var scrapeWG sync.WaitGroup
			scrapeWG.Add(1)
			go func() {
				defer scrapeWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := c.Stats()
					if st.Hits < 0 || st.Len < 0 || st.Len > st.Capacity {
						t.Errorf("implausible snapshot %+v", st)
						return
					}
					c.ShardStats()
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						k := uint64((i*7 + w*13) % keySpace)
						if _, ok := c.Get(k); !ok {
							c.Set(k, k)
						}
						if i%64 == 0 {
							c.Delete(uint64((i + w) % keySpace))
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			scrapeWG.Wait()

			st := c.Stats()
			if st.Hits+st.Misses != workers*perWorker {
				t.Errorf("Hits+Misses = %d, want %d", st.Hits+st.Misses, workers*perWorker)
			}
			if st.Sets != st.Misses {
				t.Errorf("Sets = %d, want one per miss (%d)", st.Sets, st.Misses)
			}
		})
	}
}
