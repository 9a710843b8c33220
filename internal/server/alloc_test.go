package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/obs"
)

// Allocation guards for the served hit path: parse + dispatch + flush must
// run without touching the heap once a connection's reusable buffers are
// warm, or the GC-light data plane's benefit is lost one layer up.

func allocServer(t testing.TB) (*Server, *concurrent.KV) {
	t.Helper()
	inner, err := concurrent.New("clock", 4096, concurrent.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := concurrent.NewKV(inner, 4)
	for i := 0; i < 64; i++ {
		kv.Set([]byte(fmt.Sprintf("key-%02d", i)),
			[]byte(fmt.Sprintf("value-%02d-xxxxxxxxxxxxxxxxxxxx", i)), uint32(i))
	}
	s, err := New(Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	return s, kv
}

// runRequests replays one pipelined request payload through the real parse
// and dispatch loop, flushing to io.Discard, and returns the allocations
// per replay.
func runRequests(t *testing.T, s *Server, payload []byte) float64 {
	t.Helper()
	src := bytes.NewReader(payload)
	br := bufio.NewReaderSize(src, readBufSize)
	bw := bufio.NewWriterSize(io.Discard, writeBufSize)
	var req Request
	return testing.AllocsPerRun(1000, func() {
		src.Reset(payload)
		br.Reset(src)
		for src.Len() > 0 || br.Buffered() > 0 {
			if err := ParseRequest(br, &req, 0); err != nil {
				t.Fatal(err)
			}
			if !s.dispatch(bw, &req) {
				t.Fatal("connection closed")
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestServerGetHitPathZeroAllocs(t *testing.T) {
	s, _ := allocServer(t)
	if avg := runRequests(t, s, []byte("get key-07\r\n")); avg != 0 {
		t.Fatalf("single-key get hit path allocates %.1f/op, want 0", avg)
	}
	if avg := runRequests(t, s, []byte("gets key-11\r\n")); avg != 0 {
		t.Fatalf("single-key gets hit path allocates %.1f/op, want 0", avg)
	}
	if n := s.cfg.Store.Stats().Misses; n != 0 {
		t.Fatalf("unexpected misses: %d", n)
	}
}

// A multi-key get is answered by the merged lookup (dispatchPending), so it
// is driven through serveRequest as the connection loop drives it.
func TestServerMultiGetPathZeroAllocs(t *testing.T) {
	s, _ := allocServer(t)
	line := []byte("get")
	for i := 0; i < 16; i++ {
		line = append(line, fmt.Sprintf(" key-%02d", i*3)...)
	}
	line = append(line, "\r\n"...)
	var got bytes.Buffer
	mb := newMultiBuf(&got, &s.counters.Flushes)
	bt := newConnBatch()
	tr := s.newConnTracer()
	src := bytes.NewReader(line)
	br := bufio.NewReaderSize(src, readBufSize)
	serve := func() {
		src.Reset(line)
		br.Reset(src)
		got.Reset()
		for {
			if br.Buffered() == 0 {
				s.dispatchPending(mb, bt, &tr)
				if _, err := br.Peek(1); err != nil {
					break
				}
			}
			if !s.serveRequest(br, mb, bt, &tr) {
				t.Fatal("connection closed")
			}
		}
		if err := mb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	serve() // warm the batch's scratch slices and the value arena
	if n := bytes.Count(got.Bytes(), []byte("VALUE ")); n != 16 || !bytes.HasSuffix(got.Bytes(), []byte("END\r\n")) {
		t.Fatalf("16-key multi-get answered %d values: %q", n, got.Bytes())
	}
	if avg := testing.AllocsPerRun(1000, serve); avg != 0 {
		t.Fatalf("16-key multi-get path allocates %.1f/op, want 0", avg)
	}
	if n := s.cfg.Store.Stats().Misses; n != 0 {
		t.Fatalf("unexpected misses: %d", n)
	}
}

// Set is allowed its single pooled-buffer acquisition but nothing else per
// request in steady state (overwrites recycle the previous buffer).
func TestServerSetPathAllocs(t *testing.T) {
	s, _ := allocServer(t)
	payload := []byte("set key-07 9 0 27 noreply\r\nvalue-07-overwritten-steady\r\n")
	if avg := runRequests(t, s, payload); avg > 1 {
		t.Fatalf("set path allocates %.2f/op, want <= 1", avg)
	}
}

// A lifecycle recorder on the store plus a disabled tracer (TraceSample 0)
// must not cost the hit path anything: events fire only on exclusive-lock
// paths and the tracer's disabled checks are single branches.
func TestServerGetHitPathZeroAllocsWithRecorder(t *testing.T) {
	s, kv := allocServer(t)
	kv.SetRecorder(obs.NewRecorder(4, 1024))
	tr := s.newConnTracer()
	if tr.enabled() {
		t.Fatal("tracer enabled with TraceSample 0")
	}
	payload := []byte("get key-07\r\n")
	src := bytes.NewReader(payload)
	br := bufio.NewReaderSize(src, readBufSize)
	bw := bufio.NewWriterSize(io.Discard, writeBufSize)
	var req Request
	if avg := testing.AllocsPerRun(1000, func() {
		src.Reset(payload)
		br.Reset(src)
		pStart := tr.begin()
		if err := ParseRequest(br, &req, 0); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		s.dispatch(bw, &req)
		tr.observe(&req, pStart, start, time.Now())
		fs := tr.preFlush()
		bw.Flush()
		tr.flushed(fs)
	}); avg != 0 {
		t.Fatalf("hit path with recorder + disabled tracer allocates %.1f/op, want 0", avg)
	}
}

// The MRC key sampler at rate 1 stages every get into a lock-free ring on
// the hit path; the acceptance bar for -mrc-sample is that this stays at
// zero allocations per request.
func TestServerGetHitPathZeroAllocsWithMRCSampling(t *testing.T) {
	s, kv := allocServer(t)
	kv.SetSampler(obs.NewKeySampler(1.0, 4, 1024))
	if avg := runRequests(t, s, []byte("get key-07\r\n")); avg != 0 {
		t.Fatalf("get hit path with MRC sampling allocates %.1f/op, want 0", avg)
	}
	if n := s.cfg.Store.Stats().Misses; n != 0 {
		t.Fatalf("unexpected misses: %d", n)
	}
}

// With sampling on, the tracer is allowed its one-time pending-slice
// allocation but nothing per request in steady state.
func TestServerGetHitPathAllocsWithSampling(t *testing.T) {
	inner, err := concurrent.New("clock", 4096, concurrent.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := concurrent.NewKV(inner, 4)
	kv.Set([]byte("key-07"), []byte("value-07"), 7)
	s, err := New(Config{Store: kv, TraceSample: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.newConnTracer()
	payload := []byte("get key-07\r\n")
	src := bytes.NewReader(payload)
	br := bufio.NewReaderSize(src, readBufSize)
	bw := bufio.NewWriterSize(io.Discard, writeBufSize)
	var req Request
	run := func() {
		src.Reset(payload)
		br.Reset(src)
		pStart := tr.begin()
		if err := ParseRequest(br, &req, 0); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		s.dispatch(bw, &req)
		tr.observe(&req, pStart, start, time.Now())
		fs := tr.preFlush()
		bw.Flush()
		tr.flushed(fs)
	}
	run() // warm the pending slice
	if avg := testing.AllocsPerRun(1000, run); avg > 1 {
		t.Fatalf("hit path with sampling allocates %.2f/op, want <= 1", avg)
	}
	if s.spans.Total() == 0 {
		t.Fatal("sampling recorded no spans")
	}
}
