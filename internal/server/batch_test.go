package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/concurrent"
)

// TestMultiBufEquivalence drives multiBuf with a random interleaving of its
// write surface — AvailableBuffer append-in-place, plain Writes, strings,
// bytes, arena references, explicit flushes — and checks the delivered
// stream is byte-for-byte what a plain buffer would have produced.
func TestMultiBufEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arena := make([]byte, 8192)
	for i := range arena {
		arena[i] = byte('A' + i%26)
	}
	var got, want bytes.Buffer
	var flushes atomic.Int64
	mb := newMultiBuf(&got, &flushes)
	for i := 0; i < 20000; i++ {
		switch rng.Intn(5) {
		case 0: // the AvailableBuffer contract dispatch relies on
			b := mb.AvailableBuffer()
			n := rng.Intn(300)
			for j := 0; j < n; j++ {
				b = append(b, byte('a'+(i+j)%26))
			}
			mb.Write(b)
			want.Write(b)
		case 1:
			s := strings.Repeat("x", rng.Intn(200))
			mb.WriteString(s)
			want.WriteString(s)
		case 2:
			mb.WriteByte(byte('0' + i%10))
			want.WriteByte(byte('0' + i%10))
		case 3: // zero-copy value reference, spanning many chunk boundaries
			v := arena[rng.Intn(len(arena)/2) : len(arena)/2+rng.Intn(len(arena)/2)]
			mb.writeRef(v)
			want.Write(v)
		case 4:
			if err := mb.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("multiBuf stream diverged: got %d bytes, want %d", got.Len(), want.Len())
	}
	if flushes.Load() == 0 {
		t.Fatal("flush counter never moved")
	}
	if mb.Buffered() != 0 {
		t.Fatalf("Buffered()=%d after flush", mb.Buffered())
	}
}

// TestServerNoopVersion pipelines noop and version between gets: both must
// answer in order without disturbing the batched get runs around them.
func TestServerNoopVersion(t *testing.T) {
	_, addr := startServer(t, nil)
	rc := dialRaw(t, addr)
	rc.send("set k 0 0 2\r\nhi\r\n")
	rc.expect("STORED")
	rc.send("get k\r\nnoop\r\nversion\r\nget k\r\nnoop\r\n")
	rc.expect("VALUE k 0 2")
	rc.expect("hi")
	rc.expect("END")
	rc.expect("NOOP")
	rc.expect("VERSION " + Version)
	rc.expect("VALUE k 0 2")
	rc.expect("hi")
	rc.expect("END")
	rc.expect("NOOP")
}

// orderingScript builds a deterministic pipelined workload that hits every
// batching barrier: consecutive get runs (merged), sets and deletes between
// them (barriers), multi-key gets, values straddling the iovec-reference
// threshold, protocol errors mid-burst, and noop delimiters. It ends with a
// final noop so the reader knows when the response stream is complete.
func orderingScript() []byte {
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(99))
	val := func(n int) string {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte('a' + rng.Intn(26))
		}
		return string(s)
	}
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	sizes := []int{3, 64, 127, 128, 129, 700, 2048}
	for i, k := range keys {
		v := val(sizes[i%len(sizes)])
		b.WriteString("set " + k + " 0 0 " + itoa(len(v)) + "\r\n" + v + "\r\n")
	}
	for round := 0; round < 30; round++ {
		// A run of consecutive gets — the merged-dispatch fodder.
		for j := 0; j < 8; j++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				b.WriteString("get " + k + "\r\n")
			case 1:
				b.WriteString("gets " + k + " missing-" + itoa(j) + "\r\n")
			case 2:
				b.WriteString("get " + k + " " + keys[rng.Intn(len(keys))] + " nope\r\n")
			}
		}
		// Barriers: mutations, errors, and delimiters between runs.
		switch round % 5 {
		case 0:
			v := val(sizes[rng.Intn(len(sizes))])
			b.WriteString("set " + keys[rng.Intn(len(keys))] + " 1 0 " + itoa(len(v)) + "\r\n" + v + "\r\n")
		case 1:
			b.WriteString("noop\r\n")
		case 2:
			b.WriteString("bogus cmd\r\n")
		case 3:
			// A complete get line that fails validation: its CLIENT_ERROR
			// must land after the merged run before it.
			b.WriteString("get " + strings.Repeat("x", 300) + "\r\n")
		case 4:
			b.WriteString("delete " + keys[rng.Intn(len(keys))] + "\r\nversion\r\n")
		}
	}
	b.WriteString("noop\r\n")
	return b.Bytes()
}

func itoa(n int) string { return strconv.Itoa(n) }

// runOrderingWorkload plays script through a chaos proxy (every write
// fragmented, latency jitter) against a server with or without batching,
// returning the complete response stream.
func runOrderingWorkload(t *testing.T, noBatch bool, script []byte) ([]byte, *Server) {
	t.Helper()
	srv, addr := startServer(t, func(c *Config) {
		c.NoBatch = noBatch
		c.WriteTimeout = 10 * time.Second
	})
	proxy, err := chaos.NewProxy("", addr, chaos.Config{
		Seed:        13,
		PartialProb: 1, // fragment every write, both directions
		LatencyProb: 0.2,
		Latency:     200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	c, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		c.Write(script)
	}()
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	var resp bytes.Buffer
	buf := make([]byte, 4096)
	for !bytes.HasSuffix(resp.Bytes(), []byte("NOOP\r\n")) {
		n, err := c.Read(buf)
		resp.Write(buf[:n])
		if err != nil {
			t.Fatalf("read after %d bytes: %v", resp.Len(), err)
		}
	}
	return resp.Bytes(), srv
}

// TestBatchedOrderingUnderChaos is the batching correctness capstone: the
// same pipelined workload, fragmented and delayed by the chaos proxy, must
// produce a byte-for-byte identical response stream from the batched
// writev path and the legacy per-request path — batching may only change
// how responses are delivered, never what or in what order.
func TestBatchedOrderingUnderChaos(t *testing.T) {
	script := orderingScript()
	batched, bsrv := runOrderingWorkload(t, false, script)
	legacy, lsrv := runOrderingWorkload(t, true, script)
	if !bytes.Equal(batched, legacy) {
		i := 0
		for i < len(batched) && i < len(legacy) && batched[i] == legacy[i] {
			i++
		}
		lo := i - 50
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("response streams diverge at byte %d:\nbatched: %q\nlegacy:  %q",
			i, batched[lo:min(i+50, len(batched))], legacy[lo:min(i+50, len(legacy))])
	}
	if bsrv.Counters().Batches.Load() == 0 {
		t.Fatal("batched server never merged a dispatch (batching not engaged)")
	}
	if lsrv.Counters().Batches.Load() != 0 {
		t.Fatal("NoBatch server recorded merged dispatches")
	}
	if bsrv.Counters().Flushes.Load() == 0 || lsrv.Counters().Flushes.Load() == 0 {
		t.Fatal("flush counters never moved")
	}
}

// TestServerBatchedPipelineZeroAllocs is the batched twin of the
// single-dispatch alloc guards: a pipelined burst of gets accumulated,
// merged, assembled, and flushed must not allocate in steady state — the
// batching layer may not give back what the zero-copy hit path won.
func TestServerBatchedPipelineZeroAllocs(t *testing.T) {
	inner, err := concurrent.New("qdlp", 1024, concurrent.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	kv := concurrent.NewKV(inner, 4)
	s, err := New(Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	small := bytes.Repeat([]byte("s"), 40)   // copied into the chunk
	large := bytes.Repeat([]byte("L"), 1024) // queued as an iovec reference
	kv.SetDigest([]byte("k1"), small, 0, concurrent.Digest([]byte("k1")), 0)
	kv.SetDigest([]byte("k2"), large, 0, concurrent.Digest([]byte("k2")), 0)
	kv.SetDigest([]byte("k3"), small, 0, concurrent.Digest([]byte("k3")), 0)
	payload := []byte(strings.Repeat("get k1\r\nget k2 k3\r\ngets k3\r\n", 8))

	r := bytes.NewReader(payload)
	br := bufio.NewReaderSize(r, readBufSize)
	mb := newMultiBuf(io.Discard, &s.counters.Flushes)
	bt := newConnBatch()
	tr := s.newConnTracer()
	run := func() {
		r.Seek(0, io.SeekStart)
		br.Reset(r)
		if _, err := br.Peek(len(payload)); err != nil {
			t.Fatal(err)
		}
		for {
			handled, err := s.tryBatchParse(br, bt, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if !handled {
				break
			}
			if bt.full() {
				s.dispatchPending(mb, bt, &tr, 0)
			}
		}
		s.dispatchPending(mb, bt, &tr, 0)
		if err := mb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pools and scratch buffers
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("batched pipelined get path allocates %.1f times per burst, want 0", allocs)
	}
	if s.counters.Batches.Load() == 0 || s.counters.BatchedReqs.Load() == 0 {
		t.Fatal("merged dispatch counters never moved")
	}
}

// TestServerMultiListener serves through ListenAndServe with two
// SO_REUSEPORT listeners and checks the partition plumbing: traffic lands,
// locality is accounted (local + cross == keys served), and shutdown
// drains every accept loop.
func TestServerMultiListener(t *testing.T) {
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Addr:        "127.0.0.1:0",
		Store:       concurrent.NewKV(inner, 8),
		Listeners:   2,
		IdleTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()

	var keyOps int64
	for i := 0; i < 3; i++ {
		rc := dialRaw(t, addr)
		for j := 0; j < 16; j++ {
			k := "key-" + itoa(i*100+j)
			rc.send("set " + k + " 0 0 2\r\nvv\r\n")
			rc.expect("STORED")
			rc.send("get " + k + "\r\n")
			rc.expect("VALUE " + k + " 0 2")
			rc.expect("vv")
			rc.expect("END")
			keyOps += 2 // one set key + one get key
		}
	}
	local, cross := srv.Counters().LocalOps.Load(), srv.Counters().CrossCoreOps.Load()
	if local+cross != keyOps {
		t.Fatalf("locality accounting: local %d + cross %d != %d key ops", local, cross, keyOps)
	}
	if local == 0 || cross == 0 {
		t.Fatalf("expected both partitions hit: local %d, cross %d", local, cross)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
