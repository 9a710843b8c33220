package main

import (
	"math"
	"math/rand"

	"repro/internal/workload"
)

// Every input is a pure function of the seed: key streams come from seeded
// generators, and a value is derived from its key so that any hit can be
// checked without remembering what was stored.

const (
	minValue = 64
	maxValue = 4096
	padSpan  = 1 << 16
)

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the i-th independent generator seed of a run.
func subSeed(seed int64, i int) int64 { return seed*64 + int64(i) }

// payloads maps a key id to its value: a window into one seeded random pad.
// Offset (and, for sized workloads, length) depend on the id, so a reply
// carrying another key's bytes does not compare equal.
type payloads struct {
	pad  []byte
	salt uint64
}

func newPayloads(seed int64) *payloads {
	rng := rand.New(rand.NewSource(seed))
	pad := make([]byte, padSpan+maxValue)
	rng.Read(pad)
	return &payloads{pad: pad, salt: uint64(seed)}
}

func (p *payloads) value(id uint64, size int) []byte {
	off := mix64(id^p.salt) % padSpan
	return p.pad[off : off+uint64(size)]
}

// logUniformSize is a key's value size, log-uniform on [minValue, maxValue].
func (p *payloads) logUniformSize(id uint64) int {
	u := float64(mix64(id+p.salt)>>11) / (1 << 53)
	return int(minValue * math.Pow(maxValue/minValue, u))
}

// corrupt flips every pad byte: the expected values no longer match what
// was stored, which is how -corrupt shows that the output check has teeth.
func (p *payloads) corrupt() {
	for i := range p.pad {
		p.pad[i] ^= 0xff
	}
}

// zipfStream draws n key ranks (0 is the most popular) from Zipf(alpha)
// over keys ranks.
func zipfStream(seed int64, keys, n int, alpha float64) []uint32 {
	z := workload.NewZipf(rand.New(rand.NewSource(seed)), keys, alpha)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Next())
	}
	return out
}

// familyWindows cuts parts windows of n requests each out of one trace of a
// workload.Family and returns their key columns.
//
// The trace is always the family's generator seed 1, the only one for which
// Family.Generate uses the family's calibrated parameters: every other seed
// jitters skew, scan and loop shares by up to 40 %, which moved hit ratios by
// over 10 % from one run seed to the next and would have made the benchmark
// measure its seed. The run seed instead picks where in the (circular) trace
// the windows start and renames every key, so seeds differ in phase and in
// where keys hash to, not in the shape of the workload - as they do for the
// Zipf streams.
func familyWindows(fam workload.Family, seed int64, objects, n, parts int) [][]uint64 {
	tr := fam.Generate(1, objects, n*parts)
	total := len(tr.Requests)
	start := int(mix64(uint64(seed)) % uint64(total))
	rename := mix64(uint64(seed)+0x6b657973) | 1 // never zero, so never the identity
	out := make([][]uint64, parts)
	for p := range out {
		w := make([]uint64, n)
		for i := range w {
			w[i] = tr.Requests[(start+p*n+i)%total].Key ^ rename
		}
		out[p] = w
	}
	return out
}

const keyLen = 12

// rankKey renders a Zipf rank as its wire key, "key:" + 8 hex digits.
func rankKey(dst []byte, rank uint32) []byte {
	dst = append(dst[:0], "key:00000000"...)
	putHex(dst[4:], uint64(rank))
	return dst
}

// idKey renders a 64-bit trace key as 16 hex digits.
func idKey(dst []byte, id uint64) []byte {
	dst = append(dst[:0], "0000000000000000"...)
	putHex(dst, id)
	return dst
}

func putHex(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = digits[v&15]
		v >>= 4
	}
}

// rankKeys pre-renders the keys of a Zipf keyspace into one slab.
type rankKeys struct{ slab []byte }

func newRankKeys(prefix byte, n int) rankKeys {
	slab := make([]byte, 0, n*keyLen)
	var b []byte
	for i := 0; i < n; i++ {
		b = rankKey(b, uint32(i))
		b[0] = prefix
		slab = append(slab, b...)
	}
	return rankKeys{slab}
}

func (k rankKeys) key(rank uint32) []byte {
	return k.slab[int(rank)*keyLen : (int(rank)+1)*keyLen : (int(rank)+1)*keyLen]
}
