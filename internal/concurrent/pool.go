package concurrent

import (
	"math/bits"
	"sync"
)

// Size-classed buffer pools for the KV's objects. An object lives in its
// key's slab slot (see entry): the slot holds its header — flags, cas,
// expiry — and one backing buffer holding its key and value, drawn from
// the pool of the smallest class that fits. Eviction, Delete, and
// overwrite return the buffer for reuse, and there is no other per-object
// allocation to return. Steady-state Set traffic therefore recycles a
// fixed working set of buffers instead of feeding the garbage collector
// one allocation per write.
//
// The classes are the steps one eighth of a doubling apart from 64 B to
// 2 MiB (64, 72, 80, …, 1024, 1152, …), each raised to what the Go
// allocator really hands out for it and duplicates dropped. A buffer thus
// holds at most an eighth more than its object (64 B at least), or the
// runtime's own size class where that is coarser, and the runtime does not
// round it up again. The largest class covers MaxKeyLen plus the default 1 MiB
// value limit with room to spare. Requests beyond it fall back to plain
// allocations that are never pooled.
const (
	bufMinBits = 6  // smallest step: 64 B
	bufMaxBits = 21 // largest step: 2 MiB
	// bufSteps counts the eighth steps: eight per doubling, plus the top.
	bufSteps = (bufMaxBits-bufMinBits)*8 + 1
)

var (
	// bufSizes lists the class sizes, ascending.
	bufSizes []int
	// bufPools[i] holds *[]byte buffers of exactly bufSizes[i] bytes, each
	// at full length. Pointers (not raw slices) are pooled so Put does not
	// box a new interface value on every recycle; the pointer is the
	// buffer's pool handle, and its header is never rewritten.
	bufPools []sync.Pool
	// stepClass[r] is the smallest class above step r-1 (class 0 for
	// r = 0): the class of every n up to step r, unless n passes it.
	stepClass [bufSteps]uint8
)

func init() {
	prev := 0 // the step before s
	for s := 1 << bufMinBits; s <= 1<<bufMaxBits; s += 1 << (bits.Len(uint(s)) - 4) {
		if c := allocSize(s); len(bufSizes) == 0 || c > bufSizes[len(bufSizes)-1] {
			bufSizes = append(bufSizes, c)
		}
		cls := len(bufSizes) - 1
		for cls > 0 && bufSizes[cls-1] > prev {
			cls--
		}
		stepClass[stepOf(s)] = uint8(cls)
		prev = s
	}
	bufPools = make([]sync.Pool, len(bufSizes))
	for i, size := range bufSizes {
		bufPools[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// stepOf returns the index of the smallest eighth step holding n bytes,
// 0 < n <= 1<<bufMaxBits.
func stepOf(n int) int {
	if n <= 1<<bufMinBits {
		return 0
	}
	shift := bits.Len(uint(n-1)) - 4 // (n-1)>>shift is in [8, 15]
	return (shift-bufMinBits+3)*8 + ((n-1)>>shift - 7)
}

// allocSize returns what the Go allocator hands out for an n-byte []byte:
// up to 32 KiB its size class, probed as the capacity append grows an
// empty slice to; above that whole 8 KiB pages, computed rather than
// probed so that start-up does not allocate megabytes.
func allocSize(n int) int {
	const maxSmall, page = 32 << 10, 8 << 10
	if n > maxSmall {
		return (n + page - 1) &^ (page - 1)
	}
	return cap(append([]byte(nil), make([]byte, n)...))
}

// bufClass returns the pool index for a buffer of at least n bytes, or -1
// when n exceeds the largest class (the caller allocates unpooled): the
// smallest class above the step below n, or the next one when n does not
// fit it.
func bufClass(n int) int {
	if n > 1<<bufMaxBits {
		return -1
	}
	cls := int(stepClass[stepOf(n)])
	if bufSizes[cls] < n {
		cls++
	}
	return cls
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
// unpooled buffer (nil handle) is left to the GC. A class size maps back
// to its own class, so c names the pool the buffer came from.
func putBuf(handle *[]byte, c int) {
	if handle != nil {
		bufPools[bufClass(c)].Put(handle)
	}
}
