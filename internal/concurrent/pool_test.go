package concurrent

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// allocated is what the Go allocator hands out for an n-byte []byte: the
// capacity append grows an empty slice to.
func allocated(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

// classBound is the most a buffer for n bytes may hold before the
// runtime's rounding: an eighth more than n, and never under 64 B.
func classBound(n int) int { return max(64, (9*n+7)/8) }

// TestBufClassLadder checks every size a pooled buffer can be asked for:
// its class holds it, wastes at most an eighth (or the 64 B floor) beyond
// what the runtime's own rounding forces, and maps back to itself from its
// size, which putBuf relies on. Each class is exactly what the runtime
// allocates for it, so the pool's buffers are not rounded up again.
func TestBufClassLadder(t *testing.T) {
	for i, size := range bufSizes {
		if got := allocated(size); got != size {
			t.Fatalf("class %d is %d B, the runtime allocates %d for it", i, size, got)
		}
		if i > 0 && size <= bufSizes[i-1] {
			t.Fatalf("classes not ascending: %d after %d", size, bufSizes[i-1])
		}
		if got := bufClass(size); got != i {
			t.Fatalf("bufClass(%d) = %d, want its own class %d", size, got, i)
		}
	}
	if top := bufSizes[len(bufSizes)-1]; top != 1<<bufMaxBits {
		t.Fatalf("largest class %d B, want %d", top, 1<<bufMaxBits)
	}
	// rounded(b) is allocated(b), probed once per runtime size: every b in
	// [lo, hi] rounds to hi.
	lo, hi := 0, -1
	rounded := func(b int) int {
		if b < lo || b > hi {
			lo, hi = b, allocated(b)
		}
		return hi
	}
	for n := 1; n <= 1<<bufMaxBits; n++ {
		cls := bufClass(n)
		if cls < 0 {
			t.Fatalf("bufClass(%d) = %d: no class for a size within the ladder", n, cls)
		}
		size := bufSizes[cls]
		if size < n {
			t.Fatalf("bufClass(%d) is %d B, too small", n, size)
		}
		if limit := rounded(classBound(n)); size > limit {
			t.Fatalf("bufClass(%d) is %d B, over the bound %d (%d after runtime rounding)", n, size, classBound(n), limit)
		}
	}
	if got := bufClass(1<<bufMaxBits + 1); got != -1 {
		t.Fatalf("bufClass past the ladder = %d, want -1 (unpooled)", got)
	}
}

// TestKVBufferFootprint fills a byte-capped KV with one object size, then
// with sizes spread log-uniformly over 64 B-4 KiB, and checks after each
// that the resident objects' buffers hold at most an eighth more than
// their keys and values (64 B at least): the memory the cap bounds is the
// memory the buffers take.
func TestKVBufferFootprint(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name, 0, WithMaxBytes(2<<20), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		kv := NewKV(c, 4)
		rng := rand.New(rand.NewSource(1))
		check := func(phase string) {
			var held, bound int
			for _, e := range walkKV(t, kv) {
				held += cap(e.buf)
				bound += classBound(len(e.buf))
			}
			if held > bound {
				t.Errorf("%s, %s: resident buffers hold %d B, over the bound %d B", name, phase, held, bound)
			}
		}
		value := make([]byte, 1<<12)
		for i := 0; i < 8000; i++ { // about four times what fits
			kv.Set([]byte(fmt.Sprintf("obj-%08d", i)), value[:1024], 0) // 12 B key: 1036 B objects
		}
		check("1036 B objects")
		for i := 0; i < 16000; i++ {
			n := int(64 * math.Exp2(6*rng.Float64()))
			kv.Set([]byte(fmt.Sprintf("mix-%08d", i)), value[:n-12], 0)
		}
		check("64 B-4 KiB objects")
	}
}

// TestKVBufferBytesMatchesWalk checks Stats.BufferBytes against the sum
// over the resident objects' buffers (walkKV) after each way an object
// comes and goes: sets, overwrites to other sizes, deletes, evictions and
// the wheel's TTL reclaim.
func TestKVBufferBytesMatchesWalk(t *testing.T) {
	eachKV(t, func(t *testing.T, kv *KV) {
		now := time.Now().Unix() + 1
		kv.AdvanceTTL(now)
		key := func(i int) []byte { return []byte(fmt.Sprintf("buf-%03d", i)) }
		value := make([]byte, 300)
		for i := 0; i < 24; i++ {
			kv.SetDigest(key(i), value[:10+i], 0, Digest(key(i)), 0)
		}
		walkKV(t, kv)
		for i := 0; i < 24; i += 2 {
			kv.SetDigest(key(i), value[:100+7*i], 0, Digest(key(i)), 0)
		}
		walkKV(t, kv)
		for i := 0; i < 24; i += 3 {
			kv.Delete(key(i))
		}
		walkKV(t, kv)
		before := kv.Stats().Evictions
		for i := 24; i < 200; i++ {
			kv.SetDigest(key(i), value[:1+i%150], 0, Digest(key(i)), now+1)
		}
		if kv.Stats().Evictions == before {
			t.Fatal("no evictions: the fill did not overrun the cache")
		}
		walkKV(t, kv)
		if kv.AdvanceTTL(now+2) == 0 {
			t.Fatal("the wheel reclaimed nothing")
		}
		walkKV(t, kv)
	})
}
