package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Key: 1, Kind: EvAdmit})
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder has counts")
	}
	if evs := r.Snapshot(0); evs != nil {
		t.Fatalf("nil recorder snapshot = %v", evs)
	}
	if evs := r.KeyEvents(1, 0); evs != nil {
		t.Fatalf("nil recorder key events = %v", evs)
	}
	var b *SpanBuffer
	b.Record(Span{Key: 1})
	if b.Total() != 0 || b.Dropped() != 0 || b.SlowCount() != 0 {
		t.Fatal("nil span buffer has counts")
	}
	if sp := b.Snapshot(0); sp != nil {
		t.Fatalf("nil span buffer snapshot = %v", sp)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(4, 64)
	want := []Event{
		{Nanos: 100, Key: 42, Kind: EvAdmit},
		{Nanos: 200, Key: 42, Kind: EvDemoteGhost, Reason: ReasonProbationOverflow},
		{Nanos: 300, Key: 42, Kind: EvGhostReadmit},
		{Nanos: 400, Key: 42, Kind: EvEvict, Reason: ReasonMainClock, Freq: 3},
	}
	for _, ev := range want {
		r.Record(ev)
	}
	r.Record(Event{Nanos: 250, Key: 7, Kind: EvAdmit}) // different key, interleaved time

	got := r.KeyEvents(42, 0)
	if len(got) != len(want) {
		t.Fatalf("key events = %d, want %d", len(got), len(want))
	}
	for i, ev := range got {
		w := want[i]
		if ev.Nanos != w.Nanos || ev.Key != w.Key || ev.Kind != w.Kind ||
			ev.Reason != w.Reason || ev.Freq != w.Freq {
			t.Fatalf("event %d = %+v, want %+v", i, ev, w)
		}
	}

	all := r.Snapshot(0)
	if len(all) != 5 {
		t.Fatalf("snapshot = %d events, want 5", len(all))
	}
	// Snapshot is globally time-ordered: key 7's event lands between 200 and 300.
	if all[2].Key != 7 {
		t.Fatalf("snapshot order wrong: %+v", all)
	}
	if r.Total() != 5 || r.Dropped() != 0 {
		t.Fatalf("total=%d dropped=%d, want 5/0", r.Total(), r.Dropped())
	}

	// max trims to the most recent.
	if tail := r.Snapshot(2); len(tail) != 2 || tail[1].Nanos != 400 {
		t.Fatalf("snapshot(2) = %+v", tail)
	}
}

func TestRecorderStampsTime(t *testing.T) {
	r := NewRecorder(1, 64)
	r.Record(Event{Key: 9, Kind: EvAdmit})
	evs := r.KeyEvents(9, 0)
	if len(evs) != 1 || evs[0].Nanos == 0 {
		t.Fatalf("expected stamped event, got %+v", evs)
	}
}

func TestRecorderWrapCountsDrops(t *testing.T) {
	r := NewRecorder(1, 64) // single 64-slot ring
	const n = 200
	for i := 0; i < n; i++ {
		r.Record(Event{Nanos: int64(i + 1), Key: 5, Kind: EvAdmit})
	}
	if r.Total() != n {
		t.Fatalf("total = %d, want %d", r.Total(), n)
	}
	if r.Dropped() != n-64 {
		t.Fatalf("dropped = %d, want %d", r.Dropped(), n-64)
	}
	evs := r.KeyEvents(5, 0)
	if len(evs) != 64 {
		t.Fatalf("retained = %d, want 64", len(evs))
	}
	// The retained window is the most recent 64, in order.
	for i, ev := range evs {
		if want := int64(n - 64 + i + 1); ev.Nanos != want {
			t.Fatalf("event %d nanos = %d, want %d", i, ev.Nanos, want)
		}
	}
}

func TestKeyEventsSince(t *testing.T) {
	r := NewRecorder(1, 64)
	for i := 0; i < 10; i++ {
		r.Record(Event{Nanos: int64(i + 1), Key: 3, Kind: EvAdmit})
	}
	evs := r.KeyEventsSince(3, 7, 0)
	if len(evs) != 3 {
		t.Fatalf("since 7: %d events, want 3", len(evs))
	}
	if evs[0].Seq != 7 || evs[2].Seq != 9 {
		t.Fatalf("since 7: seqs %d..%d", evs[0].Seq, evs[2].Seq)
	}
}

// Writers a lap apart share a slot. One 64-slot ring under many more
// writers than CPUs makes that constant: a writer descheduled inside record
// wakes to a slot that has since been written 64, 128, ... positions on, and
// its leftover stores must not mix into the newer event. Every event of
// writer w carries w in all three payload fields, so a mix shows as a
// mismatch — to a snapshot racing the writers, and, since a writer that was
// asleep mid-record when its round ended finishes that record before it
// exits, in the ring at rest.
func TestRecorderConcurrent(t *testing.T) {
	const writers, rounds = 16, 10
	check := func(r *Recorder, when string) {
		for _, ev := range r.Snapshot(0) {
			if uint64(ev.Freq) != ev.Key || uint64(ev.Nanos) != ev.Key {
				t.Fatalf("torn event %s: nanos=%d key=%d freq=%d", when, ev.Nanos, ev.Key, ev.Freq)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		r := NewRecorder(1, 64)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 1; w <= writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					r.Record(Event{Nanos: int64(w), Key: uint64(w), Kind: EvAdmit, Freq: uint8(w)})
				}
			}(w)
		}
		// Two scheduler time slices: long enough for writers to be preempted.
		for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
			check(r, "under load")
		}
		close(stop)
		wg.Wait()
		check(r, "at rest")
		if r.Total() <= 64 || r.Dropped() != r.Total()-64 {
			t.Fatalf("total=%d dropped=%d: every position past the ring's 64 is one event not retained", r.Total(), r.Dropped())
		}
	}
}

func TestSpanBufferRoundTrip(t *testing.T) {
	b := NewSpanBuffer(64)
	b.Record(Span{Start: 10, Key: 1, Op: 1, Outcome: 2, ParseNs: 100, DispatchNs: 200, FlushNs: 300})
	b.Record(Span{Start: 20, Key: 2, Op: 3, Outcome: 4, Slow: true, ParseNs: 1, DispatchNs: 2, FlushNs: 3})
	spans := b.Snapshot(0)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	sp := spans[0]
	if sp.Start != 10 || sp.Key != 1 || sp.Op != 1 || sp.Outcome != 2 || sp.Slow ||
		sp.ParseNs != 100 || sp.DispatchNs != 200 || sp.FlushNs != 300 {
		t.Fatalf("span 0 = %+v", sp)
	}
	if !spans[1].Slow {
		t.Fatal("span 1 lost slow flag")
	}
	if b.Total() != 2 || b.Dropped() != 0 || b.SlowCount() != 1 {
		t.Fatalf("total=%d dropped=%d slow=%d", b.Total(), b.Dropped(), b.SlowCount())
	}
}

func TestSpanBufferWrap(t *testing.T) {
	b := NewSpanBuffer(64)
	for i := 0; i < 100; i++ {
		b.Record(Span{Start: int64(i)})
	}
	if b.Dropped() != 36 {
		t.Fatalf("dropped = %d, want 36", b.Dropped())
	}
	spans := b.Snapshot(10)
	if len(spans) != 10 || spans[9].Start != 99 {
		t.Fatalf("snapshot(10) tail = %+v", spans[len(spans)-1])
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(2, 64)
	b := NewSpanBuffer(64)
	if avg := testing.AllocsPerRun(500, func() {
		r.Record(Event{Nanos: 1, Key: 77, Kind: EvEvict, Reason: ReasonMainClock})
		b.Record(Span{Start: 1, Key: 77})
	}); avg != 0 {
		t.Fatalf("record allocates %.1f/op, want 0", avg)
	}
	var nilR *Recorder
	var nilB *SpanBuffer
	if avg := testing.AllocsPerRun(500, func() {
		nilR.Record(Event{Key: 77, Kind: EvAdmit})
		nilB.Record(Span{Key: 77})
	}); avg != 0 {
		t.Fatalf("disabled record allocates %.1f/op, want 0", avg)
	}
}

func TestKindAndReasonStrings(t *testing.T) {
	cases := []struct{ got, want string }{
		{EvAdmit.String(), "admit"},
		{EvPromote.String(), "promote"},
		{EvDemoteGhost.String(), "demote-ghost"},
		{EvGhostReadmit.String(), "ghost-readmit"},
		{EvEvict.String(), "evict"},
		{EvExpire.String(), "expire"},
		{EvDelete.String(), "delete"},
		{EvHotReplicate.String(), "hot-replicate"},
		{EvHotDemote.String(), "hot-demote"},
		{EvNone.String(), "none"},
		{ReasonProbationOverflow.String(), "probation-overflow"},
		{ReasonMainClock.String(), "main-clock"},
		{ReasonCapacity.String(), "capacity"},
		{ReasonExpired.String(), "expired"},
		{ReasonDeleted.String(), "deleted"},
		{ReasonNone.String(), "none"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("string = %q, want %q", c.got, c.want)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	lg, err := NewLogger("warn", "json", &sb)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "k", "v")
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info leaked past warn level: %q", out)
	}
	if !strings.Contains(out, `"msg":"shown"`) || !strings.Contains(out, `"k":"v"`) {
		t.Errorf("json output missing fields: %q", out)
	}

	sb.Reset()
	lg, err = NewLogger("", "", &sb) // defaults: info, text
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown")
	if out := sb.String(); strings.Contains(out, "hidden") || !strings.Contains(out, "msg=shown") {
		t.Errorf("text default output wrong: %q", out)
	}

	if _, err := NewLogger("loud", "text", &sb); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger("info", "xml", &sb); err == nil {
		t.Error("bad format accepted")
	}
}
