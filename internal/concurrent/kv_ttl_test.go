package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TTL behavior at the KV layer: the lazy check on the hit path, the
// proactive timer-wheel reclaim, and their agreement. The tests drive a
// synthetic clock (SetNow/AdvanceTTL) so nothing sleeps.

func ttlKey(i int) []byte { return []byte(fmt.Sprintf("ttl-key-%04d", i)) }

// Expired entries answer as misses on every read path — Get, AppendHit,
// GetMulti — as soon as the TTL clock passes their deadline, before any
// wheel tick reclaims them.
func TestKVLazyExpiry(t *testing.T) {
	for _, kv := range kvCaches(t, 4096, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			base := time.Now().Unix()
			kv.SetNow(base)
			dead, live := ttlKey(0), ttlKey(1)
			kv.SetDigest(dead, []byte("soon gone"), 0, Digest(dead), base+5)
			kv.SetDigest(live, []byte("stays"), 0, Digest(live), base+1000)

			if _, _, _, ok := kv.Get(nil, dead); !ok {
				t.Fatal("missed before the deadline")
			}
			kv.SetNow(base + 5) // deadline is inclusive: expireAt <= now
			if _, _, _, ok := kv.Get(nil, dead); ok {
				t.Fatal("Get hit past the deadline")
			}
			if _, _, ok := kv.AppendHit(nil, dead, Digest(dead), nil); ok {
				t.Fatal("AppendHit hit past the deadline")
			}
			keys := [][]byte{dead, live}
			ids := []uint64{Digest(dead), Digest(live)}
			out := make([]MultiHit, 2)
			kv.GetMulti(nil, keys, ids, out)
			if out[0].Hit {
				t.Fatal("GetMulti hit the expired key")
			}
			if !out[1].Hit {
				t.Fatal("GetMulti missed the live key")
			}
			if _, _, _, ok := kv.Get(nil, live); !ok {
				t.Fatal("live key missed")
			}
			// Lazy misses are not proactive reclaims.
			if exp := kv.Stats().Expired; exp != 0 {
				t.Fatalf("Expired = %d before any wheel tick", exp)
			}
		})
	}
}

// The acceptance bar for proactive expiry: under a seeded mixed-size
// workload with clustered deadlines, one AdvanceTTL within two wheel ticks
// of the deadline reclaims at least 95% of the expired bytes (the wheel is
// exact at 1 s granularity, so in practice it reclaims all of them).
func TestKVAdvanceTTLReclaimsExpiredBytes(t *testing.T) {
	for _, kv := range kvCaches(t, 4096, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			base := time.Now().Unix()
			kv.SetNow(base)
			rng := rand.New(rand.NewSource(42))
			const n = 100
			var expiringBytes, liveBytes int64
			expiring := 0
			for i := 0; i < n; i++ {
				val := make([]byte, 16+rng.Intn(240))
				exp := base + 1000
				if i%2 == 0 {
					exp = base + 3 + int64(rng.Intn(3)) // deadlines in [base+3, base+5]
					expiringBytes += int64(len(val))
					expiring++
				} else {
					liveBytes += int64(len(val))
				}
				key := ttlKey(i)
				kv.SetDigest(key, val, 0, Digest(key), exp)
			}
			if kv.Stats().ValueBytes != expiringBytes+liveBytes {
				t.Fatalf("Bytes = %d before expiry, want %d", kv.Stats().ValueBytes, expiringBytes+liveBytes)
			}

			// Two ticks past the last clustered deadline.
			reclaimed := kv.AdvanceTTL(base + 7)
			if reclaimed != expiring {
				t.Errorf("AdvanceTTL reclaimed %d entries, want %d", reclaimed, expiring)
			}
			freed := expiringBytes + liveBytes - kv.Stats().ValueBytes
			if float64(freed) < 0.95*float64(expiringBytes) {
				t.Errorf("reclaimed %d of %d expired bytes (< 95%%)", freed, expiringBytes)
			}
			if kv.Stats().ValueBytes != liveBytes || kv.Stats().Len != n-expiring {
				t.Errorf("after expiry: bytes=%d items=%d, want %d/%d",
					kv.Stats().ValueBytes, kv.Stats().Len, liveBytes, n-expiring)
			}
			if exp := kv.Stats().Expired; exp != int64(expiring) {
				t.Errorf("Stats().Expired = %d, want %d", exp, expiring)
			}
			// A second sweep finds nothing.
			if again := kv.AdvanceTTL(base + 8); again != 0 {
				t.Errorf("second AdvanceTTL reclaimed %d", again)
			}
		})
	}
}

// The wheel and the lazy check must agree: after moving the clock, the set
// of keys the wheel reclaims is exactly the set the hit path already
// refuses to serve.
func TestKVWheelMatchesLazyExpiry(t *testing.T) {
	for _, kv := range kvCaches(t, 4096, 4) {
		t.Run(kv.Name(), func(t *testing.T) {
			base := time.Now().Unix()
			kv.SetNow(base)
			rng := rand.New(rand.NewSource(7))
			const n = 200
			deadline := make([]int64, n)
			for i := 0; i < n; i++ {
				deadline[i] = base + 1 + int64(rng.Intn(20))
				key := ttlKey(i)
				kv.SetDigest(key, []byte("v"), 0, Digest(key), deadline[i])
			}
			now := base + 10
			kv.SetNow(now)
			lazyMisses := 0
			for i := 0; i < n; i++ {
				_, _, _, ok := kv.Get(nil, ttlKey(i))
				if due := deadline[i] <= now; due == ok {
					t.Fatalf("key %d: deadline %+d vs now, hit=%v", i, deadline[i]-now, ok)
				} else if due {
					lazyMisses++
				}
			}
			if reclaimed := kv.AdvanceTTL(now); reclaimed != lazyMisses {
				t.Fatalf("wheel reclaimed %d, lazy check refused %d", reclaimed, lazyMisses)
			}
			for i := 0; i < n; i++ {
				if _, _, _, ok := kv.Get(nil, ttlKey(i)); ok != (deadline[i] > now) {
					t.Fatalf("key %d hit=%v after sweep, deadline %+d", i, ok, deadline[i]-now)
				}
			}
		})
	}
}

// Overwriting an entry re-arms (or clears) its TTL, and deleting one
// disarms the wheel node — neither leaves a stale timer that could fire
// for the key's next incarnation.
func TestKVOverwriteAndDeleteDisarmTTL(t *testing.T) {
	inner, err := New("clock", 1024, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 2)
	base := time.Now().Unix()
	kv.SetNow(base)

	// TTL → no TTL: the overwrite must survive the old deadline.
	k1 := ttlKey(1)
	kv.SetDigest(k1, []byte("short-lived"), 0, Digest(k1), base+5)
	kv.SetDigest(k1, []byte("immortal"), 0, Digest(k1), 0)
	// no TTL → TTL: the overwrite must expire.
	k2 := ttlKey(2)
	kv.SetDigest(k2, []byte("immortal"), 0, Digest(k2), 0)
	kv.SetDigest(k2, []byte("short-lived"), 0, Digest(k2), base+5)
	// TTL then delete: the wheel must not count a reclaim for it.
	k3 := ttlKey(3)
	kv.SetDigest(k3, []byte("deleted first"), 0, Digest(k3), base+5)
	if !kv.Delete(k3) {
		t.Fatal("delete missed")
	}

	if reclaimed := kv.AdvanceTTL(base + 10); reclaimed != 1 {
		t.Fatalf("AdvanceTTL reclaimed %d entries, want 1 (only %q)", reclaimed, k2)
	}
	if v, _, _, ok := kv.Get(nil, k1); !ok || string(v) != "immortal" {
		t.Fatalf("k1 after sweep: %q ok=%v", v, ok)
	}
	if _, _, _, ok := kv.Get(nil, k2); ok {
		t.Fatal("k2 survived its re-armed deadline")
	}
	st := kv.Stats()
	if st.Expired != 1 || st.Deletes != 1 {
		t.Fatalf("Expired/Deletes = %d/%d, want 1/1", st.Expired, st.Deletes)
	}
}

// Lifecycle events distinguish TTL reclaims from client deletes: the wheel
// and ExpireDigest record EvExpire, Delete records EvDelete; only the
// wheel's reclaims count into Snapshot.Expired.
func TestKVExpireEventKinds(t *testing.T) {
	inner, err := New("clock", 1024, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 1)
	rec := obs.NewRecorder(1, 256)
	kv.SetRecorder(rec)
	base := time.Now().Unix()
	kv.SetNow(base)

	wheelKey, clientKey, delKey := ttlKey(10), ttlKey(11), ttlKey(12)
	kv.SetDigest(wheelKey, []byte("w"), 0, Digest(wheelKey), base+1)
	kv.SetDigest(clientKey, []byte("c"), 0, Digest(clientKey), 0)
	kv.SetDigest(delKey, []byte("d"), 0, Digest(delKey), 0)

	kv.AdvanceTTL(base + 2)
	if !kv.ExpireDigest(clientKey, Digest(clientKey)) {
		t.Fatal("ExpireDigest missed")
	}
	if !kv.DeleteDigest(delKey, Digest(delKey)) {
		t.Fatal("DeleteDigest missed")
	}

	kinds := map[uint64]obs.EventKind{}
	reasons := map[uint64]obs.Reason{}
	for _, ev := range rec.Snapshot(256) {
		if ev.Kind == obs.EvExpire || ev.Kind == obs.EvDelete {
			kinds[ev.Key] = ev.Kind
			reasons[ev.Key] = ev.Reason
		}
	}
	if kinds[Digest(wheelKey)] != obs.EvExpire || reasons[Digest(wheelKey)] != obs.ReasonExpired {
		t.Errorf("wheel reclaim recorded %v/%v", kinds[Digest(wheelKey)], reasons[Digest(wheelKey)])
	}
	if kinds[Digest(clientKey)] != obs.EvExpire {
		t.Errorf("client expiry recorded %v", kinds[Digest(clientKey)])
	}
	if kinds[Digest(delKey)] != obs.EvDelete {
		t.Errorf("delete recorded %v", kinds[Digest(delKey)])
	}
	st := kv.Stats()
	if st.Expired != 1 {
		t.Errorf("Expired = %d, want 1 (client-driven expiry counts as a delete)", st.Expired)
	}
	if st.Deletes != 2 {
		t.Errorf("Deletes = %d, want 2", st.Deletes)
	}
}

// The background ticker reclaims an already-due entry within a couple of
// real ticks, and its stop function is idempotent.
func TestKVStartExpiry(t *testing.T) {
	inner, err := New("clock", 1024, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 1)
	key := ttlKey(20)
	kv.SetDigest(key, []byte("doomed"), 0, Digest(key), time.Now().Unix()-1)

	stop := kv.StartExpiry(10 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for kv.Stats().Len != 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never reclaimed the expired entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if kv.Stats().Expired != 1 {
		t.Fatalf("Expired = %d", kv.Stats().Expired)
	}
	stop()
	stop() // idempotent
}

// Race hammer: Get/Set with short TTLs racing the wheel sweep. Run under
// -race in tier 1; the assertions are the usual invariants (no negative
// accounting, planes agree at quiescence).
func TestKVTTLConcurrentHammer(t *testing.T) {
	inner, err := New("clock", 1<<12, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := NewKV(inner, 4)
	base := time.Now().Unix()
	kv.SetNow(base)

	const (
		workers   = 4
		perWorker = 5000
		keySpace  = 512
	)
	stop := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		now := base
		for {
			select {
			case <-stop:
				return
			default:
			}
			now++
			kv.AdvanceTTL(now)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				key := ttlKey(rng.Intn(keySpace))
				id := Digest(key)
				if _, _, _, ok := kv.GetDigest(nil, key, id); !ok {
					// Short TTLs keep the sweeper busy; a third never expire.
					exp := base + int64(rng.Intn(30))
					if i%3 == 0 {
						exp = 0
					}
					kv.SetDigest(key, []byte("hammer-value"), 0, id, exp)
				}
				if i%97 == 0 {
					kv.DeleteDigest(key, id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweepWG.Wait()

	if kv.Stats().ValueBytes < 0 || kv.Stats().Len < 0 {
		t.Fatalf("negative accounting: bytes=%d items=%d", kv.Stats().ValueBytes, kv.Stats().Len)
	}
	// Quiescent agreement: every resident entry is either immortal or not
	// yet due, once a final sweep catches the clock up.
	final := base + 64
	kv.AdvanceTTL(final)
	st := kv.Stats()
	if st.Expired == 0 {
		t.Error("hammer produced no proactive expiries")
	}
}
