package clock

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/policytest"
	"repro/internal/trace"
)

func TestConformance1Bit(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 1) })
}

func TestConformance2Bit(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 2) })
}

func TestNames(t *testing.T) {
	if New(1, 1).Name() != "fifo-reinsertion" {
		t.Fatalf("1-bit name = %q", New(1, 1).Name())
	}
	if New(1, 2).Name() != "clock-2bit" {
		t.Fatalf("2-bit name = %q", New(1, 2).Name())
	}
	for _, reg := range []string{"clock", "fifo-reinsertion", "clock-2bit", "clock-3bit"} {
		core.MustNew(reg, 2)
	}
}

func TestBadBitsPanics(t *testing.T) {
	for _, bits := range []int{7, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(1, %d) did not panic", bits)
				}
			}()
			New(1, bits)
		}()
	}
}

// Requested objects get a second chance: hitting the oldest object causes
// the next-oldest unrequested object to be evicted instead.
func TestReinsertion(t *testing.T) {
	p := New(3, 1)
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 1, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("requested key 1 was evicted; CLOCK must reinsert")
	}
	if p.Contains(2) {
		t.Fatal("unrequested key 2 survived over requested key 1")
	}
}

// With 1 bit, two hits are no better than one: a twice-hit object survives
// exactly one clock sweep.
func TestOneBitSaturation(t *testing.T) {
	p := New(2, 1)
	reqs := policytest.KeysToRequests([]uint64{1, 1, 1, 2, 3, 4})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	// Insert 3: queue [1,2]; 1 has freq 1 → reinserted (freq 0), evict 2.
	// Insert 4: queue [1,3]; 1 has freq 0 → evicted.
	if p.Contains(1) {
		t.Fatal("1-bit CLOCK kept a key across two sweeps")
	}
}

// With 2 bits, a frequently requested object survives multiple sweeps
// (frequency up to three, decremented once per scan — §3).
func TestTwoBitKeepsHotObject(t *testing.T) {
	p := New(2, 2)
	reqs := policytest.KeysToRequests([]uint64{1, 1, 1, 1, 2, 3, 4, 5})
	for i := range reqs {
		p.Access(&reqs[i])
	}
	// Key 1 reaches freq 3; each of the inserts 3,4,5 decrements it once.
	if !p.Contains(1) {
		t.Fatal("2-bit CLOCK evicted a hot key too early")
	}
	reqs2 := policytest.KeysToRequests([]uint64{6, 7})
	for i := range reqs2 {
		p.Access(&reqs2[i])
	}
	if p.Contains(1) {
		t.Fatal("key 1 should be exhausted after four sweeps without hits")
	}
}

// CLOCK degenerates to FIFO when nothing is ever re-requested.
func TestScanEqualsFIFO(t *testing.T) {
	p := New(16, 2)
	mr := policytest.MissRatio(p, policytest.SequentialRequests(500))
	if mr != 1.0 {
		t.Fatalf("scan miss ratio = %v, want 1.0", mr)
	}
}

// AccessResident is Access's hit path and nothing else: a miss leaves the
// cache and its events untouched, a hit counts toward reinsertion.
func TestAccessResident(t *testing.T) {
	p := New(2, 1)
	events := 0
	p.SetEvents(&core.Events{
		OnInsert: func(uint64, int64) { events++ },
		OnEvict:  func(uint64, int64) { events++ },
		OnHit:    func(uint64, int64) { events++ },
	})
	reqs := policytest.KeysToRequests([]uint64{1, 2, 3, 1})
	if p.AccessResident(&reqs[0]) || p.Len() != 0 || events != 0 {
		t.Fatalf("miss changed the cache: len %d, %d events", p.Len(), events)
	}
	p.Access(&reqs[0])
	p.Access(&reqs[1])
	events = 0
	if !p.AccessResident(&reqs[3]) || events != 1 {
		t.Fatalf("hit on key 1 not served (%d events)", events)
	}
	p.Access(&reqs[2]) // the hand reinserts 1 and evicts 2
	if !p.Contains(1) || p.Contains(2) {
		t.Fatal("the hit through AccessResident did not set the reference bit")
	}
}

// Under a byte cap a requested object still earns its second chance,
// whatever its size.
func TestClockSizeAwareReinsertion(t *testing.T) {
	p := NewBytes(1000, 2)
	reqs := []trace.Request{
		{Key: 1, Size: 400}, {Key: 2, Size: 400},
		{Key: 1, Size: 400},            // hit: sets freq
		{Key: 3, Size: 600, Time: 100}, // forces eviction
	}
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("requested object not reinserted")
	}
	if p.Contains(2) {
		t.Fatal("unrequested object survived over requested one")
	}
}
