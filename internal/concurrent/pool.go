package concurrent

import (
	"math/bits"
	"sync"
)

// Size-classed buffer pools for the KV's objects. An object lives in its
// key's slab slot (see entry): the slot holds its header — flags, cas,
// expiry — and one backing buffer holding its key and value, drawn from
// the pool whose class is the smallest power of two that fits. Eviction,
// Delete, and overwrite return the buffer for reuse, and there is no other
// per-object allocation to return. Steady-state Set traffic therefore
// recycles a fixed working set of buffers instead of feeding the garbage
// collector one allocation per write.
//
// Classes run from 64 B to 2 MiB — the largest covers MaxKeyLen plus the
// default 1 MiB value limit with room to spare. Requests beyond the top
// class fall back to plain allocations that are never pooled.
const (
	bufMinBits = 6  // smallest class: 64 B
	bufMaxBits = 21 // largest class: 2 MiB
	bufClasses = bufMaxBits - bufMinBits + 1
)

// bufPools[i] holds *[]byte buffers of exactly 1<<(bufMinBits+i) bytes,
// each at full length. Pointers (not raw slices) are pooled so Put does
// not box a new interface value on every recycle; the pointer is the
// buffer's pool handle, and its header is never rewritten.
var bufPools [bufClasses]sync.Pool

func init() {
	for i := range bufPools {
		size := 1 << (bufMinBits + i)
		bufPools[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// bufClass returns the pool index for a buffer of at least n bytes, or -1
// when n exceeds the largest class (the caller allocates unpooled).
func bufClass(n int) int {
	if n > 1<<bufMaxBits {
		return -1
	}
	if n <= 1<<bufMinBits {
		return 0
	}
	return bits.Len(uint(n-1)) - bufMinBits
}

// getBuf returns a buffer with len(buf) == n and its pool handle: pooled
// when a class fits, else a plain allocation with a nil handle.
func getBuf(n int) (buf []byte, handle *[]byte) {
	cls := bufClass(n)
	if cls < 0 {
		return make([]byte, n), nil
	}
	bp := bufPools[cls].Get().(*[]byte)
	return (*bp)[:n], bp
}

// putBuf recycles a getBuf buffer of capacity c, given its handle. An
// unpooled buffer (nil handle) is left to the GC.
func putBuf(handle *[]byte, c int) {
	if handle != nil {
		bufPools[bufClass(c)].Put(handle)
	}
}
