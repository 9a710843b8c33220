package concurrent

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func kvCaches(t *testing.T, capacity, shards int) []*KV {
	t.Helper()
	out := make([]*KV, 0, 4)
	for _, c := range caches(t, capacity, shards) {
		out = append(out, NewKV(c, shards))
	}
	return out
}

func TestKVBasic(t *testing.T) {
	for _, kv := range kvCaches(t, 1024, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			if _, _, _, ok := kv.Get(nil, []byte("a")); ok {
				t.Fatal("hit on empty KV")
			}
			cas1 := kv.Set([]byte("a"), []byte("hello"), 7)
			v, flags, cas, ok := kv.Get(nil, []byte("a"))
			if !ok || string(v) != "hello" || flags != 7 || cas != cas1 {
				t.Fatalf("Get = %q flags=%d cas=%d ok=%v", v, flags, cas, ok)
			}
			cas2 := kv.Set([]byte("a"), []byte("world!"), 8)
			if cas2 == cas1 {
				t.Fatal("cas did not advance on overwrite")
			}
			v, flags, _, ok = kv.Get(nil, []byte("a"))
			if !ok || string(v) != "world!" || flags != 8 {
				t.Fatalf("after overwrite: %q flags=%d ok=%v", v, flags, ok)
			}
			if kv.Stats().Len != 1 {
				t.Fatalf("Items = %d", kv.Stats().Len)
			}
			if kv.Stats().ValueBytes != int64(len("world!")) {
				t.Fatalf("Bytes = %d", kv.Stats().ValueBytes)
			}
			if !kv.Delete([]byte("a")) {
				t.Fatal("delete failed")
			}
			if kv.Delete([]byte("a")) {
				t.Fatal("double delete reported true")
			}
			if kv.Stats().Len != 0 || kv.Stats().ValueBytes != 0 {
				t.Fatalf("after delete: items=%d bytes=%d", kv.Stats().Len, kv.Stats().ValueBytes)
			}
		})
	}
}

// Capacity evictions in the inner cache must drop the bytes synchronously:
// the data plane can never outgrow the policy plane.
func TestKVEvictionDropsBytes(t *testing.T) {
	for _, kv := range kvCaches(t, 64, 1) {
		t.Run(kv.Name(), func(t *testing.T) {
			const valLen = 10
			for i := 0; i < 500; i++ {
				kv.Set([]byte(fmt.Sprintf("key-%04d", i)), make([]byte, valLen), 0)
			}
			if kv.Stats().Evictions == 0 {
				t.Fatal("no evictions after overfilling")
			}
			if kv.Stats().Len > kv.Stats().Capacity {
				t.Fatalf("Items %d > Capacity %d", kv.Stats().Len, kv.Stats().Capacity)
			}
			if kv.Stats().ValueBytes != int64(kv.Stats().Len)*valLen {
				t.Fatalf("Bytes %d != Items %d * %d", kv.Stats().ValueBytes, kv.Stats().Len, valLen)
			}
		})
	}
}

// Values always encode their key, so any cross-key corruption (data-plane
// mixups under concurrency) is detected. Run with -race in CI.
func TestKVConcurrentIntegrity(t *testing.T) {
	for _, kv := range kvCaches(t, 2048, 8) {
		kv := kv
		t.Run(kv.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 10000; i++ {
						n := (g*7 + i*13) % 4096
						key := []byte(fmt.Sprintf("k%d", n))
						want := fmt.Sprintf("v%d", n)
						if v, _, _, ok := kv.Get(nil, key); ok {
							if string(v) != want {
								t.Errorf("corruption: Get(%s) = %q", key, v)
								return
							}
						} else {
							kv.Set(key, []byte(want), 0)
						}
						if i%97 == 0 {
							kv.Delete(key)
						}
					}
				}(g)
			}
			wg.Wait()
			if kv.Stats().Len > kv.Stats().Capacity {
				t.Fatalf("Items %d > Capacity %d", kv.Stats().Len, kv.Stats().Capacity)
			}
			if kv.Stats().ValueBytes < 0 {
				t.Fatalf("negative byte accounting: %d", kv.Stats().ValueBytes)
			}
		})
	}
}

// Distinct keys that collide on the 64-bit digest share one data-plane
// slot: the later Set wins it, and the loser is served as a miss by
// full-key comparison — never as the other key's bytes. Real xxHash64
// collisions are out of reach, so the digest-taking APIs force one.
func TestKVCollisionServedAsMiss(t *testing.T) {
	for _, kv := range kvCaches(t, 1024, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			const id = uint64(42)
			kv.SetDigest([]byte("alpha"), []byte("va"), 0, id, 0)
			kv.SetDigest([]byte("beta"), []byte("vb"), 0, id, 0)
			if _, _, _, ok := kv.GetDigest(nil, []byte("alpha"), id); ok {
				t.Fatal("displaced colliding key served as a hit")
			}
			v, _, _, ok := kv.GetDigest(nil, []byte("beta"), id)
			if !ok || string(v) != "vb" {
				t.Fatalf("surviving colliding key: %q ok=%v", v, ok)
			}
			if !kv.DeleteDigest([]byte("beta"), id) {
				t.Fatal("delete of surviving key failed")
			}
			if kv.DeleteDigest([]byte("alpha"), id) {
				t.Fatal("delete of displaced key reported true")
			}
		})
	}
}

// Get appends into the caller's buffer and returns the extended slice.
func TestKVGetAppendsToDst(t *testing.T) {
	for _, kv := range kvCaches(t, 1024, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			kv.Set([]byte("k"), []byte("value"), 0)
			buf := append(make([]byte, 0, 64), "prefix:"...)
			v, _, _, ok := kv.Get(buf, []byte("k"))
			if !ok || string(v) != "prefix:value" {
				t.Fatalf("Get with prefix dst = %q ok=%v", v, ok)
			}
			if &buf[0] != &v[0] {
				t.Fatal("Get reallocated despite sufficient capacity")
			}
		})
	}
}

// Buffer recycling: churn far past capacity so evictions recycle buffers
// into Sets of other keys, then verify every surviving value byte-for-byte.
// Values vary in length across size classes to exercise class reuse.
func TestKVRecycledBuffersKeepIntegrity(t *testing.T) {
	for _, kv := range kvCaches(t, 128, 2) {
		t.Run(kv.Name(), func(t *testing.T) {
			val := func(i int) []byte {
				b := bytes.Repeat([]byte{byte('a' + i%26)}, 1+(i*37)%300)
				return append(b, fmt.Sprintf("|%d", i)...)
			}
			for i := 0; i < 2000; i++ {
				kv.Set([]byte(fmt.Sprintf("key-%04d", i)), val(i), uint32(i))
				if i%3 == 0 {
					kv.Delete([]byte(fmt.Sprintf("key-%04d", (i*7)%2000)))
				}
			}
			seen := 0
			for i := 0; i < 2000; i++ {
				v, flags, _, ok := kv.Get(nil, []byte(fmt.Sprintf("key-%04d", i)))
				if !ok {
					continue
				}
				seen++
				if !bytes.Equal(v, val(i)) || flags != uint32(i) {
					t.Fatalf("key-%04d corrupted after recycling: %q flags=%d", i, v, flags)
				}
			}
			if seen == 0 {
				t.Fatal("no survivors to verify")
			}
		})
	}
}

// GetMulti must agree with per-key Get, in request order, including
// duplicates and misses, with values addressed by Start/End offsets.
func TestKVGetMultiAgreesWithGet(t *testing.T) {
	for _, kv := range kvCaches(t, 1024, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			for i := 0; i < 100; i++ {
				kv.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), uint32(i))
			}
			names := []string{"k3", "k1", "missing", "k3", "k99", "nope", "k50"}
			keys := make([][]byte, len(names))
			ids := make([]uint64, len(names))
			for i, n := range names {
				keys[i] = []byte(n)
				ids[i] = Digest(keys[i])
			}
			out := make([]MultiHit, len(keys))
			buf := kv.GetMulti(nil, keys, ids, out)
			for i, n := range names {
				want, wantFlags, _, wantOK := kv.Get(nil, keys[i])
				h := out[i]
				if h.Hit != wantOK {
					t.Fatalf("%s: Hit=%v want %v", n, h.Hit, wantOK)
				}
				if !h.Hit {
					continue
				}
				if got := buf[h.Start:h.End]; !bytes.Equal(got, want) || h.Flags != wantFlags {
					t.Fatalf("%s: value %q flags %d, want %q %d", n, got, h.Flags, want, wantFlags)
				}
			}
		})
	}
}

// GetMulti's counters must match the per-key accounting.
func TestKVGetMultiStats(t *testing.T) {
	for _, kv := range kvCaches(t, 1024, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			kv.Set([]byte("a"), []byte("1"), 0)
			kv.Set([]byte("b"), []byte("2"), 0)
			keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
			ids := []uint64{Digest(keys[0]), Digest(keys[1]), Digest(keys[2])}
			out := make([]MultiHit, 3)
			kv.GetMulti(nil, keys, ids, out)
			st := kv.Stats()
			if st.Hits != 2 || st.Misses != 1 {
				t.Fatalf("hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
			}
		})
	}
}
