package concurrent

import (
	"math/bits"
	"sync"
)

// Size-classed buffer pools for the KV's objects. Every kvEntry's key and
// value live in one backing buffer drawn from the pool whose class is the
// smallest power of two that fits; eviction, Delete, and overwrite return
// the buffer for reuse. Steady-state Set traffic therefore recycles a
// fixed working set of buffers instead of feeding the garbage collector
// one allocation per write.
//
// Classes run from 64 B to 2 MiB — the largest covers MaxKeyLen plus the
// default 1 MiB value limit with room to spare. Requests beyond the top
// class fall back to plain allocations that are never pooled.
const (
	bufMinBits = 6  // smallest class: 64 B
	bufMaxBits = 21 // largest class: 2 MiB
	bufClasses = bufMaxBits - bufMinBits + 1
)

// bufPools[i] holds *[]byte buffers of exactly 1<<(bufMinBits+i) bytes.
// Pointers (not raw slices) are pooled so Put does not box a new
// interface value on every recycle.
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

// getBuf returns a buffer with len(buf) == n, pooled when a class fits.
func getBuf(n int) *[]byte {
	cls := bufClass(n)
	if cls < 0 {
		b := make([]byte, n)
		return &b
	}
	bp := bufPools[cls].Get().(*[]byte)
	*bp = (*bp)[:n]
	return bp
}

// putBuf recycles a getBuf buffer. Oversize (unpooled) buffers are dropped
// for the GC; class-sized buffers are restored to full length and pooled.
func putBuf(bp *[]byte) {
	c := cap(*bp)
	if c < 1<<bufMinBits || c > 1<<bufMaxBits || c&(c-1) != 0 {
		return
	}
	*bp = (*bp)[:c]
	bufPools[bufClass(c)].Put(bp)
}

// entryPool recycles kvEntry structs alongside their buffers. A recycled
// entry keeps its seq counter (monotonic across reuses), which is what lets
// a reader validate that the entry it is copying from was not recycled
// underneath it — see kvEntry.
var entryPool = sync.Pool{New: func() any { return new(kvEntry) }}
