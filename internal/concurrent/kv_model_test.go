package concurrent

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/evict"
)

// The KV and the policy are one structure, so two failure shapes are ruled
// out by construction rather than by ordering rules: stranded bytes (an
// object the policy no longer holds, never reclaimed) and policy-only
// residents (an admitted key with no object). walkKV proves it on a live
// store: it walks every shard's queues and checks that each resident slot
// carries exactly one object with its timer armed exactly at its deadline,
// that the ghosts carry neither, and that Stats' occupancy — Len,
// ValueBytes, BufferBytes, UsedBytes — is the sum over what it walked.

// walkKV returns the object in every resident slot, keyed by digest. Call
// at quiescence.
func walkKV(t *testing.T, kv *KV) map[uint64]entry {
	t.Helper()
	resident := map[uint64]entry{}
	var valueBytes, bufferBytes, used int64
	for i := range kv.b.shards {
		s := &kv.b.shards[i]
		var shardUsed int64
		armed := 0
		for _, l := range []*evict.Region{&s.Main, &s.Prob} {
			var cost int64
			for n := l.List.Front(); n != 0; n = s.X.Next(n) {
				id, v := s.X.Key(n), s.X.Value(n)
				if v.P.e.buf == nil {
					t.Fatalf("shard %d: resident %#x holds no object", i, id)
				}
				if got := uint64(EntryCost(len(v.P.e.key()), len(v.P.e.value()))); v.Size != got {
					t.Fatalf("shard %d: %#x accounted at %d, its object costs %d", i, id, v.Size, got)
				}
				if got := hash(id) & kv.b.mask; got != uint64(i) {
					t.Fatalf("%#x sits in shard %d, maps to %d", id, i, got)
				}
				at, ok := s.wheel.ExpireAt(n)
				if ok != (v.P.e.expireAt > 0) || at != v.P.e.expireAt {
					t.Fatalf("%#x expires at %d, its timer is armed %v for %d", id, v.P.e.expireAt, ok, at)
				}
				if ok {
					armed++
				}
				resident[id] = v.P.e
				valueBytes += int64(len(v.P.e.value()))
				bufferBytes += int64(cap(v.P.e.buf))
				shardUsed += int64(v.Size)
				if kv.b.byBytes {
					cost += int64(v.Size)
				} else {
					cost++
				}
			}
			if cost != l.Used || cost > l.Max {
				t.Fatalf("shard %d: region holds %d cost units, accounts %d, budget %d", i, cost, l.Used, l.Max)
			}
		}
		for n := s.Ghost.Front(); n != 0; n = s.X.Next(n) {
			if v := s.X.Value(n); v.P.e.buf != nil || v.P.e.handle != nil || v.P.e.expireAt != 0 || v.Where != evict.InGhost {
				t.Fatalf("shard %d: ghost %#x holds an object or sits in list %d", i, s.X.Key(n), v.Where)
			}
			if _, ok := s.wheel.ExpireAt(n); ok {
				t.Fatalf("shard %d: ghost %#x has an armed timer", i, s.X.Key(n))
			}
		}
		if s.wheel.Len() != armed {
			t.Fatalf("shard %d: %d timers armed, %d residents have a deadline", i, s.wheel.Len(), armed)
		}
		if n := s.Main.List.Len() + s.Prob.List.Len() + s.Ghost.Len(); n != s.X.Len() || n > s.Slots() {
			t.Fatalf("shard %d: %d keys on lists, %d in the index, bound %d", i, n, s.X.Len(), s.Slots())
		}
		if got := s.stats.usedBytes; got != shardUsed {
			t.Fatalf("shard %d: UsedBytes %d, residents sum to %d", i, got, shardUsed)
		}
		used += shardUsed
	}
	st := kv.Stats()
	if st.Len != len(resident) {
		t.Fatalf("Stats.Len %d, resident objects %d", st.Len, len(resident))
	}
	if st.ValueBytes != valueBytes {
		t.Fatalf("Stats.ValueBytes %d, resident values sum to %d", st.ValueBytes, valueBytes)
	}
	if st.BufferBytes != bufferBytes {
		t.Fatalf("Stats.BufferBytes %d, resident buffers sum to %d", st.BufferBytes, bufferBytes)
	}
	if st.UsedBytes != used || (st.MaxBytes > 0 && used > st.MaxBytes) || (st.Capacity > 0 && st.Len > st.Capacity) {
		t.Fatalf("UsedBytes %d (residents %d), MaxBytes %d, Len %d, Capacity %d", st.UsedBytes, used, st.MaxBytes, st.Len, st.Capacity)
	}
	return resident
}

// eachKV runs fn over all four policies in both capacity modes, each store
// sized to hold about 48 small objects over 2 shards.
func eachKV(t *testing.T, fn func(t *testing.T, kv *KV)) {
	for _, mode := range []struct {
		name string
		opt  Option
	}{
		{"entries", WithMaxEntries(48)},
		{"bytes", WithMaxBytes(48 * 160)},
	} {
		for _, name := range Names() {
			c, err := New(name, 0, mode.opt, WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(mode.name+"/"+name, func(t *testing.T) { fn(t, NewKV(c, 2)) })
		}
	}
}

// object is the oracle's record of what a Set stored.
type object struct {
	key, value []byte
	flags      uint32
	expireAt   int64
}

func (o *object) live(now int64) bool { return o.expireAt == 0 || o.expireAt > now }

// TestKVAgainstModel drives every KV operation from one seeded stream
// against a plain map. The map cannot know what the policy evicts, so after
// every step it is reconciled with walkKV: whatever is resident must be in
// the map with identical content, and what is not resident is dropped from
// it. Between two steps the map is therefore exact, and predicts the next
// step's result — hit or miss, and every returned byte.
func TestKVAgainstModel(t *testing.T) {
	eachKV(t, func(t *testing.T, kv *KV) {
		rng := rand.New(rand.NewSource(7))
		now := time.Now().Unix() + 1
		kv.AdvanceTTL(now)
		model := map[uint64]*object{}
		// 96 digests over twice what fits; each is shared by two keys, so
		// "b" keys collide with "a" keys on purpose.
		pick := func() (uint64, []byte) {
			i := rng.Intn(96)
			variant := "a"
			if rng.Intn(8) == 0 {
				variant = "b"
			}
			return hash(uint64(i)), []byte(fmt.Sprintf("%s-%03d", variant, i))
		}
		expect := func(id uint64, key []byte) *object {
			if o := model[id]; o != nil && bytes.Equal(o.key, key) && o.live(now) {
				return o
			}
			return nil
		}
		var hits, misses, sets, deletes, expired int64
		for step := 0; step < 6000; step++ {
			id, key := pick()
			switch op := rng.Intn(100); {
			case op < 30: // get
				want := expect(id, key)
				v, flags, _, ok := kv.GetDigest(nil, key, id)
				if ok != (want != nil) || (ok && (!bytes.Equal(v, want.value) || flags != want.flags)) {
					t.Fatalf("step %d: Get(%s) = %q flags %d ok %v, model %+v", step, key, v, flags, ok, want)
				}
				if ok {
					hits++
				} else {
					misses++
				}
			case op < 38: // get-multi, with repeats
				keys, ids, out := make([][]byte, 6), make([]uint64, 6), make([]MultiHit, 6)
				for j := range keys {
					ids[j], keys[j] = pick()
				}
				ids[5], keys[5] = ids[0], keys[0]
				buf := kv.GetMulti(nil, keys, ids, out)
				for j, h := range out {
					want := expect(ids[j], keys[j])
					if h.Hit != (want != nil) || (h.Hit && (!bytes.Equal(buf[h.Start:h.End], want.value) || h.Flags != want.flags)) {
						t.Fatalf("step %d: GetMulti[%d](%s) = %+v, model %+v", step, j, keys[j], h, want)
					}
					if h.Hit {
						hits++
					} else {
						misses++
					}
				}
			case op < 78: // set: new, overwrite larger or smaller, TTL'd, already past, oversized
				size := 1 + rng.Intn(200)
				if rng.Intn(40) == 0 {
					size = 1 << 14 // over any shard's byte budget; one more object under an entry cap
				}
				o := &object{key: key, value: bytes.Repeat([]byte{byte(step)}, size), flags: uint32(step)}
				switch rng.Intn(10) {
				case 0, 1:
					o.expireAt = now + 1 + int64(rng.Intn(3))
				case 2:
					o.expireAt = now - 1 // stored already expired: never visible, reclaimed by the next tick
				}
				kv.SetDigest(o.key, o.value, o.flags, id, o.expireAt)
				model[id] = o // a colliding key's object is overwritten
				sets++
			case op < 84: // delete
				want := model[id] != nil && bytes.Equal(model[id].key, key)
				if got := kv.DeleteDigest(key, id); got != want {
					t.Fatalf("step %d: Delete(%s) = %v, model %v", step, key, got, want)
				}
				if want {
					delete(model, id)
					deletes++
				}
			case op < 87: // the server's negative exptime: drop as an expiry
				want := model[id] != nil && bytes.Equal(model[id].key, key)
				if got := kv.ExpireDigest(key, id); got != want {
					t.Fatalf("step %d: Expire(%s) = %v, model %v", step, key, got, want)
				}
				if want {
					delete(model, id)
					deletes++
				}
			case op < 93: // touch, and read the deadline back
				want := expect(id, key)
				at := int64(0)
				if rng.Intn(3) > 0 {
					at = now + 1 + int64(rng.Intn(3))
				}
				if got := kv.TouchDigest(key, id, at); got != (want != nil) {
					t.Fatalf("step %d: Touch(%s) = %v, model %+v", step, key, got, want)
				}
				if want != nil {
					want.expireAt = at
				}
				if got, ok := kv.ExpireAtDigest(key, id); ok != (want != nil) || (ok && got != at) {
					t.Fatalf("step %d: ExpireAt(%s) = %d %v, want %d", step, key, got, ok, at)
				}
				if want == nil {
					misses++ // an absent key's expiry read is the gete's one lookup
				}
			default: // one virtual second passes
				now++
				due := 0
				for id, o := range model {
					if !o.live(now) {
						delete(model, id)
						due++
					}
				}
				if got := kv.AdvanceTTL(now); got != due {
					t.Fatalf("step %d: AdvanceTTL reclaimed %d, model had %d due", step, got, due)
				}
				expired += int64(due)
			}
			resident := walkKV(t, kv)
			for id, e := range resident {
				o := model[id]
				if o == nil || !bytes.Equal(e.key(), o.key) || !bytes.Equal(e.value(), o.value) || e.flags != o.flags || e.expireAt != o.expireAt {
					t.Fatalf("step %d: resident %#x = %s (%d bytes, expires %d), model %+v", step, id, e.key(), len(e.value()), e.expireAt, o)
				}
			}
			for id := range model {
				if _, ok := resident[id]; !ok {
					delete(model, id) // evicted or refused
				}
			}
		}
		st := kv.Stats()
		if st.Hits != hits || st.Misses != misses || st.Sets != sets || st.Deletes != deletes || st.Expired != expired {
			t.Fatalf("Stats %+v, tallied hits %d misses %d sets %d deletes %d expired %d", st, hits, misses, sets, deletes, expired)
		}
		if hits == 0 || expired == 0 || st.Evictions == 0 {
			t.Fatalf("the stream never hit, expired or evicted: %+v", st)
		}
	})
}

// hammerKey is key n of TestKVHammerInvariants; every value stored under it
// is some number of copies of the byte n.
func hammerKey(n int) []byte { return []byte(fmt.Sprintf("h-%03d", n)) }

// ownBytes reports whether v is a value stored under hammerKey(n).
func ownBytes(v []byte, n int) bool {
	return len(v) > 0 && bytes.Count(v, []byte{byte(n)}) == len(v)
}

// The same invariants at quiescence after eight goroutines hammered one
// store (run under -race by tier1): whatever interleaving happened, every
// resident slot ends with one object and the sums agree. Meanwhile every
// read — Get, AppendHit and GetMulti — must return only its own key's
// bytes, every one of them, while writers overwrite, delete, touch and
// expire the slots it reads from and free the buffers it copies from.
func TestKVHammerInvariants(t *testing.T) {
	eachKV(t, func(t *testing.T, kv *KV) {
		now := time.Now().Unix() + 1
		kv.AdvanceTTL(now)
		hdr := func(dst, key []byte, valueLen int, flags uint32, cas uint64) []byte {
			return append(append(dst, key...), ' ')
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				var buf []byte
				keys, ids, out := make([][]byte, 4), make([]uint64, 4), make([]MultiHit, 4)
				nums := make([]int, 4)
				for i := 0; i < 4000; i++ {
					n := rng.Intn(96)
					key := hammerKey(n)
					id := Digest(key)
					switch op := rng.Intn(16); {
					case op < 4:
						v, _, _, ok := kv.GetDigest(buf[:0], key, id)
						if ok && !ownBytes(v, n) {
							t.Errorf("Get(%s) returned bytes not its own: %v", key, v)
							return
						}
						buf = v
					case op < 6:
						got, valueLen, ok := kv.AppendHit(buf[:0], key, id, hdr)
						prefix := len(key) + 1
						if ok && (len(got) != prefix+valueLen || !bytes.Equal(got[:len(key)], key) || !ownBytes(got[prefix:], n)) {
							t.Errorf("AppendHit(%s) = %q, value length %d", key, got, valueLen)
							return
						}
						if !ok && len(got) != 0 {
							t.Errorf("AppendHit(%s) missed and appended %q", key, got)
							return
						}
						buf = got
					case op < 8:
						for j := range keys {
							nums[j] = rng.Intn(96)
							keys[j] = hammerKey(nums[j])
							ids[j] = Digest(keys[j])
						}
						buf = kv.GetMulti(buf[:0], keys, ids, out)
						for j, h := range out {
							if h.Hit && !ownBytes(buf[h.Start:h.End], nums[j]) {
								t.Errorf("GetMulti[%d](%s) returned bytes not its own: %v", j, keys[j], buf[h.Start:h.End])
								return
							}
						}
					case op < 13:
						var at int64
						if rng.Intn(4) == 0 {
							at = now + int64(rng.Intn(3))
						}
						kv.SetDigest(key, bytes.Repeat([]byte{byte(n)}, 1+rng.Intn(200)), 0, id, at)
					case op < 14:
						kv.DeleteDigest(key, id)
					case op < 15:
						kv.TouchDigest(key, id, now+2)
					default:
						if g == 0 {
							kv.AdvanceTTL(now + int64(i/1000))
						}
					}
				}
			}(g)
		}
		wg.Wait()
		walkKV(t, kv)
	})
}
